// Package datagen generates the four synthetic datasets standing in
// for the paper's real-world inputs (Table I): Wildfires (points),
// Parks (polygons), NYCTaxi (intervals), and AmazonReview (texts).
// Generators are seeded and deterministic, and preserve the statistical
// properties each join algorithm is sensitive to: spatial clustering,
// heavy-tailed polygon sizes, rush-hour interval bursts, and Zipfian
// token frequencies.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/types"
)

// World is the square coordinate space shared by the spatial datasets.
const World = 1000.0

// Dataset bundles a generated dataset with its schema and metadata.
type Dataset struct {
	Name    string
	KeyType string // the join key type, as Table I reports it
	Schema  *types.Schema
	Records []types.Record
}

// SizeBytes reports the dataset's records encoded as one batch payload
// — what a dataset file holds, less its few framing bytes — the
// analogue of Table I's on-disk size column.
func (d *Dataset) SizeBytes() int {
	return len(types.EncodeBatch(d.Records, nil))
}

// String renders a Table I style row.
func (d *Dataset) String() string {
	return fmt.Sprintf("%s: %d records, %d bytes, key type %s",
		d.Name, len(d.Records), d.SizeBytes(), d.KeyType)
}

// clusterCenters places k cluster centers uniformly in the world.
func clusterCenters(rng *rand.Rand, k int) []geo.Point {
	out := make([]geo.Point, k)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64() * World, Y: rng.Float64() * World}
	}
	return out
}

// gaussianAround samples a point near a center with the given spread,
// clamped to the world.
func gaussianAround(rng *rand.Rand, c geo.Point, spread float64) geo.Point {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > World {
			return World
		}
		return v
	}
	return geo.Point{
		X: clamp(c.X + rng.NormFloat64()*spread),
		Y: clamp(c.Y + rng.NormFloat64()*spread),
	}
}

// Wildfires generates n fire reports: clustered ignition points (fires
// cluster in dry regions) with a year and a burn interval.
func Wildfires(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := clusterCenters(rng, 12)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "location", Kind: types.KindPoint},
		types.Field{Name: "year", Kind: types.KindInt64},
		types.Field{Name: "burn", Kind: types.KindInterval},
	)
	recs := make([]types.Record, n)
	for i := range recs {
		c := centers[rng.Intn(len(centers))]
		p := gaussianAround(rng, c, 25)
		start := rng.Int63n(100000)
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewPoint(p),
			types.NewInt64(2019 + int64(rng.Intn(5))),
			types.NewInterval(interval.Interval{Start: start, End: start + 1 + rng.Int63n(500)}),
		}
	}
	return &Dataset{Name: "Wildfires", KeyType: "Point", Schema: schema, Records: recs}
}

// Parks generates n park polygons with heavy-tailed sizes (a few huge
// parks, many small ones) and tag strings drawn from a skewed
// vocabulary.
func Parks(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "boundary", Kind: types.KindPolygon},
		types.Field{Name: "tags", Kind: types.KindString},
	)
	recs := make([]types.Record, n)
	for i := range recs {
		x, y := rng.Float64()*World, rng.Float64()*World
		// Pareto-ish extent: most parks are tiny, a few are enormous.
		extent := 0.5 + 3*math.Pow(1/(rng.Float64()+0.01), 0.6)
		if extent > World/10 {
			extent = World / 10
		}
		w := extent * (0.5 + rng.Float64())
		h := extent * (0.5 + rng.Float64())
		// Irregular hexagon inside the w×h box, counter-clockwise.
		jitter := func(f float64) float64 { return f * (0.8 + 0.2*rng.Float64()) }
		poly := geo.NewPolygon([]geo.Point{
			{X: x + jitter(w*0.3), Y: y},
			{X: x + jitter(w*0.9), Y: y + jitter(h*0.1)},
			{X: x + w, Y: y + jitter(h*0.6)},
			{X: x + jitter(w*0.7), Y: y + h},
			{X: x + jitter(w*0.2), Y: y + jitter(h*0.9)},
			{X: x, Y: y + jitter(h*0.4)},
		})
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewPolygon(poly),
			types.NewString(tagString(rng)),
		}
	}
	return &Dataset{Name: "Parks", KeyType: "Polygon", Schema: schema, Records: recs}
}

var parkTags = []string{
	"river", "scenic", "landscape", "camping", "backpacking", "trail",
	"lake", "mountain", "forest", "desert", "canyon", "wildlife",
	"fishing", "swimming", "historic", "monument", "beach", "waterfall",
	"climbing", "picnic",
}

func tagString(rng *rand.Rand) string {
	n := 2 + rng.Intn(5)
	tags := make([]string, n)
	for i := range tags {
		idx := rng.Intn(len(parkTags))
		if rng.Intn(2) == 0 { // skew toward popular tags
			idx = rng.Intn(len(parkTags) / 3)
		}
		tags[i] = parkTags[idx]
	}
	return strings.Join(tags, " ")
}

// dayTicks is the length of one simulated day in ticks.
const dayTicks = 24 * 60

// NYCTaxi generates n taxi rides: vendor 1 or 2, a pickup point near
// one of a few hotspots, and a ride interval whose start times burst at
// rush hours (8am and 6pm of a repeating day).
func NYCTaxi(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	hotspots := clusterCenters(rng, 5)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "vendor", Kind: types.KindInt64},
		types.Field{Name: "pickup", Kind: types.KindPoint},
		types.Field{Name: "ride_interval", Kind: types.KindInterval},
	)
	days := n/2000 + 1
	recs := make([]types.Record, n)
	for i := range recs {
		day := int64(rng.Intn(days))
		var minute int64
		if rng.Intn(3) > 0 {
			// Rush hour: normal around 8:00 or 18:00.
			center := int64(8 * 60)
			if rng.Intn(2) == 1 {
				center = 18 * 60
			}
			minute = center + int64(rng.NormFloat64()*45)
		} else {
			minute = rng.Int63n(dayTicks)
		}
		if minute < 0 {
			minute = 0
		}
		if minute >= dayTicks {
			minute = dayTicks - 1
		}
		start := day*dayTicks + minute
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(1 + int64(rng.Intn(2))),
			types.NewPoint(gaussianAround(rng, hotspots[rng.Intn(len(hotspots))], 15)),
			types.NewInterval(interval.Interval{Start: start, End: start + 3 + rng.Int63n(45)}),
		}
	}
	return &Dataset{Name: "NYCTaxi", KeyType: "Interval", Schema: schema, Records: recs}
}

// Trajectories generates n vehicle trajectories: random walks that
// start near one of a few hubs (so trajectories cluster and actually
// approach each other) with a vehicle class column for filtering.
func Trajectories(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	hubs := clusterCenters(rng, 8)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "class", Kind: types.KindInt64},
		types.Field{Name: "route", Kind: types.KindLineString},
	)
	recs := make([]types.Record, n)
	for i := range recs {
		steps := 4 + rng.Intn(8)
		pts := make([]geo.Point, steps)
		pts[0] = gaussianAround(rng, hubs[rng.Intn(len(hubs))], 20)
		for s := 1; s < steps; s++ {
			pts[s] = geo.Point{
				X: clampWorld(pts[s-1].X + rng.NormFloat64()*6),
				Y: clampWorld(pts[s-1].Y + rng.NormFloat64()*6),
			}
		}
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(1 + int64(rng.Intn(2))),
			types.NewLineString(geo.NewLineString(pts)),
		}
	}
	return &Dataset{Name: "Trajectories", KeyType: "LineString", Schema: schema, Records: recs}
}

func clampWorld(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > World {
		return World
	}
	return v
}

// reviewVocabSize is the vocabulary the Zipfian review generator draws
// from; word `w17` is the 17th most common word.
const reviewVocabSize = 4000

// AmazonReview generates n product reviews: an overall rating skewed
// toward 5 stars (as real review datasets are) and review text whose
// token frequencies follow a Zipf distribution, which is what prefix
// filtering exploits. Like real review corpora, the data contains
// near-duplicates: a fraction of reviews reuse an earlier review's
// wording with at most one word changed, so high-threshold similarity
// joins have nonempty answers.
func AmazonReview(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 4, reviewVocabSize-1)
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "overall", Kind: types.KindInt64},
		types.Field{Name: "review", Kind: types.KindString},
	)
	ratings := []int64{5, 5, 5, 4, 4, 3, 2, 1} // skewed distribution
	recs := make([]types.Record, n)
	texts := make([]string, n)
	var sb strings.Builder
	for i := range recs {
		var review string
		if i > 0 && rng.Intn(5) == 0 {
			// Near-duplicate: copy an earlier review, maybe swap one word.
			words := strings.Fields(texts[rng.Intn(i)])
			if len(words) > 0 && rng.Intn(2) == 0 {
				words[rng.Intn(len(words))] = fmt.Sprintf("w%d", zipf.Uint64())
			}
			review = strings.Join(words, " ")
		} else {
			sb.Reset()
			words := 5 + rng.Intn(12)
			for w := 0; w < words; w++ {
				if w > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "w%d", zipf.Uint64())
			}
			review = sb.String()
		}
		texts[i] = review
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewInt64(ratings[rng.Intn(len(ratings))]),
			types.NewString(review),
		}
	}
	return &Dataset{Name: "AmazonReview", KeyType: "Text", Schema: schema, Records: recs}
}
