package textsim

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"fudj/internal/core"
	"fudj/internal/text"
	"fudj/internal/wire"
)

var vocab = []string{
	"river", "scenic", "landscape", "camping", "backpacking", "trail",
	"lake", "mountain", "forest", "desert", "canyon", "wildlife",
	"fishing", "swimming", "historic", "monument",
}

// randomTexts builds reviews from a skewed vocabulary: low-index words
// appear more often, giving the frequency skew prefix filtering needs.
func randomTexts(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		words := 3 + rng.Intn(6)
		s := ""
		for w := 0; w < words; w++ {
			idx := rng.Intn(len(vocab))
			if rng.Intn(3) > 0 { // skew toward common words
				idx = rng.Intn(len(vocab) / 2)
			}
			if w > 0 {
				s += " "
			}
			s += vocab[idx]
		}
		out[i] = s
	}
	return out
}

func brute(left, right []string, threshold float64) map[[2]string]int {
	out := map[[2]string]int{}
	for _, l := range left {
		for _, r := range right {
			if text.Jaccard(text.TokenSet(l), text.TokenSet(r)) >= threshold {
				out[[2]string{l, r}]++
			}
		}
	}
	return out
}

func run(t *testing.T, j core.Join, left, right []string, threshold float64) (map[[2]string]int, core.Stats) {
	t.Helper()
	la := make([]any, len(left))
	for i, s := range left {
		la[i] = s
	}
	ra := make([]any, len(right))
	for i, s := range right {
		ra[i] = s
	}
	got := map[[2]string]int{}
	stats, err := core.RunStandalone(j, la, ra, []any{threshold}, func(l, r any) {
		got[[2]string{l.(string), r.(string)}]++
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

func TestMatchesBruteForceAcrossThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, threshold := range []float64{0.5, 0.7, 0.9, 1.0} {
		t.Run(fmt.Sprintf("t=%.1f", threshold), func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				left := randomTexts(rng, 80)
				right := randomTexts(rng, 60)
				want := brute(left, right, threshold)
				for name, mk := range map[string]func() core.Join{"avoid": New, "elim": NewElimination} {
					got, _ := run(t, mk(), left, right, threshold)
					if len(got) != len(want) {
						t.Fatalf("%s: %d distinct pairs, want %d", name, len(got), len(want))
					}
					for k, n := range want {
						if got[k] != n {
							t.Fatalf("%s: pair %v count %d, want %d", name, k, got[k], n)
						}
					}
				}
			}
		})
	}
}

func TestPrefixFilterPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	left := randomTexts(rng, 150)
	right := randomTexts(rng, 150)
	_, stats := run(t, New(), left, right, 0.9)
	if stats.Candidates >= 150*150 {
		t.Errorf("prefix filtering should prune candidates, got %d of %d", stats.Candidates, 150*150)
	}
	// Lower thresholds mean longer prefixes and more candidates.
	_, loose := run(t, New(), left, right, 0.5)
	if loose.Candidates <= stats.Candidates {
		t.Errorf("lower threshold should yield more candidates: %d vs %d", loose.Candidates, stats.Candidates)
	}
}

func TestBadThresholdRejected(t *testing.T) {
	for _, bad := range []any{0.0, -1.0, 1.5, "high", int64(1)} {
		_, err := core.RunStandalone(New(), []any{"a b"}, []any{"a b"}, []any{bad}, func(any, any) {})
		if err == nil {
			t.Errorf("threshold %v should be rejected", bad)
		}
	}
}

func TestEmptyTextsNeverJoin(t *testing.T) {
	got, _ := run(t, New(), []string{"", "   ", "river"}, []string{"", "river"}, 0.9)
	if len(got) != 1 || got[[2]string{"river", "river"}] != 1 {
		t.Errorf("got %v, want only river-river", got)
	}
}

func TestUnseenTokensAtAssignTime(t *testing.T) {
	// A record whose tokens never appeared in the summary (possible in
	// incremental scenarios) must still be assignable without panicking.
	j := New()
	plan, err := j.Divide(Summary{"common": 10}, Summary{"common": 5}, []any{0.9})
	if err != nil {
		t.Fatal(err)
	}
	ids := j.Assign(core.Left, "unseen words here", plan, nil)
	if len(ids) == 0 {
		t.Error("unseen-token record got no buckets")
	}
}

func TestDescriptor(t *testing.T) {
	d := New().Descriptor()
	if !d.DefaultMatch || !d.SymmetricSummarize || d.Params != 1 || d.Dedup != core.DedupAvoidance {
		t.Errorf("descriptor = %+v", d)
	}
	if NewElimination().Descriptor().Dedup != core.DedupElimination {
		t.Error("elimination variant descriptor")
	}
}

func TestStateCodecs(t *testing.T) {
	j := New()
	sum := Summary{"river": 3, "lake": 1}
	buf, err := j.EncodeSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.DecodeSummary(buf)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(Summary)
	if gs["river"] != 3 || gs["lake"] != 1 || len(gs) != 2 {
		t.Errorf("summary round trip = %v", gs)
	}
	plan := Plan{Ranks: map[string]int{"river": 1, "lake": 0}, NextRank: 2, Threshold: 0.9}
	pbuf, err := j.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := j.DecodePlan(pbuf)
	if err != nil {
		t.Fatal(err)
	}
	if gp.(Plan).Threshold != 0.9 || gp.(Plan).Ranks["lake"] != 0 || gp.(Plan).NextRank != 2 {
		t.Errorf("plan round trip = %+v", gp)
	}
}

func TestLibrary(t *testing.T) {
	lib := Library()
	if lib.Name() != "flexiblejoins" {
		t.Error("library name")
	}
	if _, err := lib.Resolve("setsimilarity.SetSimilarityJoin"); err != nil {
		t.Error(err)
	}
}

// TestTextsimAssignAllocatesNothing pins ASSIGN's scratch: the join
// appends a prepared key's prefix ranks into the caller's bucket list,
// so with a list reused across keys, as the engine's assign task and
// duplicate avoidance reuse theirs, Assign allocates nothing.
func TestTextsimAssignAllocatesNothing(t *testing.T) {
	j := New()
	l, r := Summary{"lake": 3, "trail": 1, "river": 2}, Summary{"lake": 2, "forest": 5}
	plan, err := j.Divide(l, r, []any{0.5})
	if err != nil {
		t.Fatal(err)
	}
	toks := text.TokenSet("lake trail forest river canyon")
	want := plan.(Plan).rankTable().AppendPrefixRanks(nil, toks, 0.5)
	// Each form prepared (or ranked) and boxed once, as the engine does.
	set := text.Set{Tokens: toks}
	for _, key := range []any{set, plan.(Plan).rankTable().RankSet(set, text.Set{})} {
		dst := make([]core.BucketID, 0, 16)
		allocs := testing.AllocsPerRun(100, func() { dst = j.Assign(core.Left, key, plan, dst[:0]) })
		if allocs != 0 {
			t.Errorf("Assign allocated %.0f times per key, want 0", allocs)
		}
		if fmt.Sprint(dst) != fmt.Sprint(want) {
			t.Errorf("Assign = %v, want the prefix ranks %v", dst, want)
		}
	}
}

// TestDecodedStateOwnsItsTokens pins that the decoders' one copy is a
// copy: overwriting the input after decoding leaves every token of the
// summary and the plan as it was, the empty token included.
func TestDecodedStateOwnsItsTokens(t *testing.T) {
	sum := Summary{"lake": 5, "": 2, "trail": 1, "río": 7}
	plan := Plan{Ranks: map[string]int{"trail": 0, "": 1, "lake": 2}, NextRank: 3, Threshold: 0.8}

	buf := marshal(sum)
	var gotSum Summary
	if err := gotSum.UnmarshalWire(wire.NewDecoder(buf)); err != nil {
		t.Fatal(err)
	}
	buf2 := marshal(plan)
	var gotPlan Plan
	if err := gotPlan.UnmarshalWire(wire.NewDecoder(buf2)); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{buf, buf2} {
		for i := range b {
			b[i] = 'x'
		}
	}
	if !maps.Equal(gotSum, sum) {
		t.Errorf("summary after overwriting its input = %v, want %v", gotSum, sum)
	}
	if !maps.Equal(gotPlan.Ranks, plan.Ranks) || gotPlan.NextRank != 3 || gotPlan.Threshold != 0.8 {
		t.Errorf("plan after overwriting its input = %+v, want %+v", gotPlan, plan)
	}
}
