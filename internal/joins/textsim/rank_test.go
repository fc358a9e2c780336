package textsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fudj/internal/core"
	"fudj/internal/datagen"
	"fudj/internal/text"
	"fudj/internal/wire"
)

// TestRankedFormAgreesWithTokenForm holds the two forms of a key to one
// another over generated reviews and hand cases: a review with a token
// the plan does not rank, an empty review and a one-token review. For
// every review, ASSIGN over either form gives the rank table's prefix
// ranks of its tokens, and the ranked form survives its wire round
// trip; for every pair, Jaccard over the ranked forms, and over one
// form of each, equals Jaccard over the token sets to the float bit,
// VERIFY agrees in all four form combinations, and so does DEDUP on
// every bucket pair the two share.
func TestRankedFormAgreesWithTokenForm(t *testing.T) {
	var reviews []string
	for _, r := range datagen.AmazonReview(46, 160).Records {
		reviews = append(reviews, r[2].Str())
	}
	j := New()
	s := j.NewSummary(core.Left)
	for _, r := range reviews {
		s = j.LocalAggregate(core.Left, r, s)
	}
	hand := []string{"w1 unranked w2 zzz", "", "w1", "unranked"}
	reviews = append(reviews, hand...)
	for _, threshold := range []float64{0.5, 0.8, 1} {
		t.Run(fmt.Sprint(threshold), func(t *testing.T) {
			plan, err := j.Divide(s, j.NewSummary(core.Right), []any{threshold})
			if err != nil {
				t.Fatal(err)
			}
			rt := plan.(Plan).rankTable()
			toks := make([]text.Set, len(reviews))
			ranked := make([]text.Set, len(reviews))
			ids := make([][]core.BucketID, len(reviews))
			for i, r := range reviews {
				toks[i] = text.Set{Tokens: text.TokenSet(r)}
				ranked[i] = rt.RankSet(toks[i], text.Set{})
				want := rt.AppendPrefixRanks(nil, toks[i].Tokens, threshold)
				ids[i] = j.Assign(core.Left, ranked[i], plan, nil)
				if got := j.Assign(core.Right, toks[i], plan, nil); !slices.Equal(got, want) || !slices.Equal(ids[i], want) {
					t.Fatalf("%q: Assign token form %v, ranked form %v, want %v", r, got, ids[i], want)
				}
				var back text.Set
				if err := back.UnmarshalWire(wire.NewDecoder(marshal(ranked[i]))); err != nil {
					t.Fatalf("%q: %v", r, err)
				}
				if !sameKey(back, ranked[i]) {
					t.Fatalf("%q: round trip %+v, want %+v", r, back, ranked[i])
				}
			}
			if len(ranked[len(reviews)-4].Tokens) != 2 || len(ranked[len(reviews)-1].Tokens) != 1 {
				t.Fatal("the hand cases' unranked tokens are not in the tail")
			}
			for a := range reviews {
				for b := range reviews {
					want := text.Jaccard(toks[a].Tokens, toks[b].Tokens)
					for _, got := range []float64{rt.Jaccard(ranked[a], ranked[b]), rt.Jaccard(toks[a], ranked[b]), rt.Jaccard(ranked[a], toks[b])} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%q ~ %q: Jaccard %v, want %v", reviews[a], reviews[b], got, want)
						}
					}
					verify := j.Verify(0, toks[a], 0, toks[b], plan)
					for _, l := range []text.Set{toks[a], ranked[a]} {
						for _, r := range []text.Set{toks[b], ranked[b]} {
							if j.Verify(0, l, 0, r, plan) != verify {
								t.Fatalf("%q ~ %q: Verify differs between forms", reviews[a], reviews[b])
							}
						}
					}
					if !verify {
						continue
					}
					for _, b1 := range ids[a] {
						if slices.Contains(ids[b], b1) && j.Dedup(b1, ranked[a], b1, ranked[b], plan) != j.Dedup(b1, toks[a], b1, toks[b], plan) {
							t.Fatalf("%q ~ %q: Dedup in bucket %d differs between forms", reviews[a], reviews[b], b1)
						}
					}
				}
			}
		})
	}
}

// sameKey reports whether two keys hold the same form and elements.
func sameKey(a, b text.Set) bool {
	return a.Ranked == b.Ranked && slices.Equal(a.Ranks, b.Ranks) && slices.Equal(a.Tokens, b.Tokens)
}
