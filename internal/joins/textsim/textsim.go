// Package textsim implements the Text Similarity FUDJ of §V-B, a
// prefix-filtering set-similarity join in the style of Vernica et al.:
// SUMMARIZE counts token occurrences per side, DIVIDE merges the counts
// and ranks tokens rarest-first, ASSIGN multi-assigns each record to
// the ranks of its prefix tokens (prefix length derived from the
// similarity threshold), MATCH is default equality (hash-join path),
// and VERIFY computes the exact Jaccard similarity. A review is a
// text.Set: its tokens at SUMMARIZE, and after DIVIDE its ranks, which
// cross the exchange and which ASSIGN, VERIFY and DEDUP take.
package textsim

import (
	"fmt"

	"fudj/internal/core"
	"fudj/internal/text"
	"fudj/internal/wire"
)

// Summary maps token → occurrence count for one side.
type Summary map[string]int64

// Plan is the text-similarity PPlan: the global token ranks plus the
// similarity threshold (the algorithm needs the threshold in every
// stage, so it rides inside the plan exactly as §VI-A describes). The
// ranks are dense: 0 to NextRank−1, one per token.
type Plan struct {
	Ranks     map[string]int
	NextRank  int
	Threshold float64
}

func (p Plan) rankTable() *text.RankTable {
	return &text.RankTable{Ranks: p.Ranks, Next: p.NextRank}
}

// MarshalWire encodes the summary as its size, then each token and its
// count.
func (s Summary) MarshalWire(e *wire.Encoder) {
	e.Uvarint(uint64(len(s)))
	for tok, n := range s {
		e.String(tok)
		e.Uvarint(uint64(n))
	}
}

// UnmarshalWire decodes what MarshalWire wrote. An entry takes at least
// two bytes, the token's length and its count, which bounds the size
// the map is made with. A first walk checks every entry; the tokens'
// run is then copied once (wire.Decoder.CopyFrom), and a second walk
// over the checked entries slices each token from the copy.
func (s *Summary) UnmarshalWire(d *wire.Decoder) error {
	n, err := d.UvarintCount(2)
	if err != nil {
		return err
	}
	again := *d
	for range n {
		if _, _, err := d.Span(); err != nil {
			return err
		}
		if _, err := d.Uvarint(); err != nil {
			return err
		}
	}
	start, toks := again.Offset(), d.CopyFrom(again.Offset())
	m := make(Summary, n)
	for range n {
		off, l, _ := again.Span() // checked by the first walk
		c, _ := again.Uvarint()
		m[toks[off-start:][:l]] = int64(c)
	}
	*s = m
	return nil
}

// MarshalWire encodes the plan as its threshold, then its tokens in
// rank order: a token's rank is its position, and NextRank the count.
func (p Plan) MarshalWire(e *wire.Encoder) {
	e.Float64(p.Threshold)
	toks := make([]string, len(p.Ranks))
	for tok, r := range p.Ranks {
		toks[r] = tok
	}
	e.Uvarint(uint64(len(toks)))
	for _, tok := range toks {
		e.String(tok)
	}
}

// UnmarshalWire decodes what MarshalWire wrote; every token takes at
// least its length byte. Its tokens are sliced from one copy of their
// run, as Summary's are.
func (p *Plan) UnmarshalWire(d *wire.Decoder) error {
	threshold, err := d.Float64()
	if err != nil {
		return err
	}
	n, err := d.UvarintCount(1)
	if err != nil {
		return err
	}
	again := *d
	for range n {
		if _, _, err := d.Span(); err != nil {
			return err
		}
	}
	start, toks := again.Offset(), d.CopyFrom(again.Offset())
	ranks := make(map[string]int, n)
	for i := range n {
		off, l, _ := again.Span() // checked by the first walk
		tok := toks[off-start:][:l]
		if _, dup := ranks[tok]; dup {
			return fmt.Errorf("textsim: plan repeats token %q", tok)
		}
		ranks[tok] = i
	}
	*p = Plan{Ranks: ranks, NextRank: n, Threshold: threshold}
	return nil
}

func spec(name string, dedup core.DedupMode) core.Spec[text.Set, text.Set, Summary, Plan] {
	return core.Spec[text.Set, text.Set, Summary, Plan]{
		Name:   name,
		Params: 1, // similarity threshold
		Dedup:  dedup,

		// A review is tokenized once per record, into its token set, and
		// ranked once after DIVIDE; the engine ships the ranked set, which
		// every later function takes.
		Prepare: func(raw any) text.Set { return text.Set{Tokens: text.TokenSet(raw.(string))} },
		Rekey:   func(s text.Set, p Plan, dst text.Set) text.Set { return p.rankTable().RankSet(s, dst) },

		// SUMMARIZE: token counting, over the token form.
		NewSummary: func() Summary { return make(Summary) },
		LocalAggLeft: func(set text.Set, s Summary) Summary {
			if set.Ranked {
				panic("textsim: SUMMARIZE takes a review's tokens, not its ranks")
			}
			for _, tok := range set.Tokens {
				s[tok]++
			}
			return s
		},
		GlobalAgg: func(a, b Summary) Summary {
			for tok, n := range b {
				a[tok] += n
			}
			return a
		},

		// DIVIDE: merge both sides' counts and rank ascending by count.
		Divide: func(l, r Summary, params []any) (Plan, error) {
			threshold, ok := params[0].(float64)
			if !ok || threshold <= 0 || threshold > 1 {
				return Plan{}, fmt.Errorf("textsim: threshold must be a float in (0, 1], got %v", params[0])
			}
			merged := make(map[string]int64, len(l)+len(r))
			for tok, n := range l {
				merged[tok] += n
			}
			for tok, n := range r {
				merged[tok] += n
			}
			rt := text.BuildRankTable(merged)
			return Plan{Ranks: rt.Ranks, NextRank: rt.Size(), Threshold: threshold}, nil
		},

		// ASSIGN: prefix ranks (multi-assign; rarest tokens first).
		AssignLeft: func(set text.Set, p Plan, dst []core.BucketID) []core.BucketID {
			return p.rankTable().AppendPrefix(dst, set, p.Threshold)
		},

		// MATCH: nil → default equality.

		// VERIFY: exact Jaccard against the threshold.
		Verify: func(_ core.BucketID, l text.Set, _ core.BucketID, r text.Set, p Plan) bool {
			return p.rankTable().Jaccard(l, r) >= p.Threshold
		},
	}
}

// New returns the text-similarity FUDJ with the framework's default
// duplicate avoidance (the Fig. 12a winner and the configuration used
// in Fig. 9/10 — note the original paper [48] used elimination).
func New() core.Join { return core.Wrap(spec("text_similarity", core.DedupAvoidance)) }
