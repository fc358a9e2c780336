// Package text provides the tokenization, token-frequency ranking,
// prefix-filter, and Jaccard-similarity machinery behind the
// text-similarity FUDJ (§V-B), which follows the prefix-filtering
// set-similarity join of Vernica et al. / Kim et al.
package text

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"

	"fudj/internal/wire"
)

// Tokenize splits s into lowercase word tokens, deduplicated (the join
// operates on token *sets*, as Jaccard similarity requires). Order of
// the returned tokens follows first appearance.
func Tokenize(s string) []string {
	var tokens []string
	seen := make(map[string]struct{})
	for tok := range words(strings.ToLower(s)) {
		if _, dup := seen[tok]; !dup {
			seen[tok] = struct{}{}
			tokens = append(tokens, tok)
		}
	}
	return tokens
}

// TokenSet returns the tokens of s as Tokenize does, but as a sorted
// set: the form Jaccard takes. It counts the words first, so the set is
// one allocation of exactly that size (none more when s is lower-case
// ASCII, since ToLower then returns s itself).
func TokenSet(s string) []string {
	lower := strings.ToLower(s)
	n := 0
	for range words(lower) {
		n++
	}
	tokens := make([]string, 0, n)
	for tok := range words(lower) {
		tokens = append(tokens, tok)
	}
	slices.Sort(tokens)
	return slices.Compact(tokens)
}

// words yields the maximal runs of letters and digits of s, in order.
func words(s string) iter.Seq[string] {
	return func(yield func(string) bool) {
		start := -1
		for i, r := range s {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				if start < 0 {
					start = i
				}
			} else if start >= 0 {
				if !yield(s[start:i]) {
					return
				}
				start = -1
			}
		}
		if start >= 0 {
			yield(s[start:])
		}
	}
}

// Jaccard returns |a ∩ b| / |a ∪ b| for two token sets, each sorted and
// free of repeats (as TokenSet returns them), by one merge of the two.
// Two empty sets have similarity 0 by convention.
func Jaccard(a, b []string) float64 { return Similarity(Overlap(a, b), len(a), len(b)) }

// Overlap returns |a ∩ b| for two sets, each sorted ascending and free
// of repeats (token sets as TokenSet returns them, or their ranks), by
// one merge of the two.
func Overlap[T cmp.Ordered](a, b []T) int {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch x, y := a[i], b[j]; {
		case x == y:
			inter++
			i++
			j++
		case x < y:
			i++
		default:
			j++
		}
	}
	return inter
}

// Similarity returns the Jaccard similarity of two sets of la and lb
// elements that share inter: inter / (la + lb - inter), or 0 for two
// empty sets. Every Jaccard of this package ends in it, so two ways of
// counting the same sets give the same float64, bit for bit.
func Similarity(inter, la, lb int) float64 {
	if la == 0 && lb == 0 {
		return 0
	}
	return float64(inter) / float64(la+lb-inter)
}

// PrefixLength returns the number of least-frequent tokens of a record
// with l tokens that must be indexed so that any pair with Jaccard
// similarity >= threshold shares at least one prefix token:
// p = l - ceil(threshold*l) + 1 (the paper's ASSIGN pseudo-code).
// It is clamped to [0, l].
func PrefixLength(l int, threshold float64) int {
	if l == 0 {
		return 0
	}
	p := l - int(math.Ceil(threshold*float64(l))) + 1
	if p < 0 {
		p = 0
	}
	if p > l {
		p = l
	}
	return p
}

// RankTable maps each token to its global frequency rank: rank 0 is the
// rarest token. This is the TokenRanks structure carried inside the
// text-similarity PPlan. Rank gives a token absent from the table the
// rank Next, which sorts after every token present, as if it were more
// frequent than all of them, so it enters a record's prefix last.
type RankTable struct {
	Ranks map[string]int
	// Next is the rank every absent token shares. Sharing it is safe for
	// prefix assignment: ranking is monotone in any order that breaks
	// the absent tokens' tie, so when two records' prefixes in that
	// order share a token, the ranks they are assigned share that
	// token's rank, Next included. The shared rank merges the absent
	// tokens' buckets into one, which can add candidate pairs VERIFY
	// rejects but never loses a joining pair. The engine never uses it:
	// ASSIGN sees exactly the records SUMMARIZE counted.
	Next int
}

// BuildRankTable sorts tokens by ascending global count (ties broken by
// token text for determinism) and assigns dense ranks. This is the
// sortByCount step of the paper's DIVIDE.
func BuildRankTable(counts map[string]int64) *RankTable {
	type tc struct {
		tok string
		n   int64
	}
	all := make([]tc, 0, len(counts))
	for tok, n := range counts {
		all = append(all, tc{tok, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return all[i].tok < all[j].tok
	})
	ranks := make(map[string]int, len(all))
	for i, e := range all {
		ranks[e.tok] = i
	}
	return &RankTable{Ranks: ranks, Next: len(all)}
}

// Rank returns the global rank for tok; unseen tokens rank last.
func (rt *RankTable) Rank(tok string) int {
	if r, ok := rt.Ranks[tok]; ok {
		return r
	}
	return rt.Next
}

// Size returns the number of distinct tokens in the table.
func (rt *RankTable) Size() int { return len(rt.Ranks) }

// AppendPrefixRanks appends to dst the ranks of the p rarest tokens of
// the given token set, sorted ascending (rarest first), where
// p = PrefixLength(len(tokens), threshold): the bucket ids the record
// is assigned to. It ranks every token into dst's tail, sorts the tail
// in place and truncates it to the prefix, so with room in dst it
// allocates nothing.
func (rt *RankTable) AppendPrefixRanks(dst []int, tokens []string, threshold float64) []int {
	n := len(dst)
	for _, tok := range tokens {
		dst = append(dst, rt.Rank(tok))
	}
	slices.Sort(dst[n:])
	return dst[:n+PrefixLength(len(tokens), threshold)]
}

// A Set is a token set in one of two forms. Unranked, Tokens is the
// set, sorted and free of repeats, as TokenSet returns it. Ranked for a
// RankTable (RankTable.RankSet), Ranks holds the ranks of the tokens the
// table ranks, ascending, and Tokens the sorted tokens it does not.
// A table gives distinct tokens distinct ranks, so both forms of a set
// have its size, its prefix and its Jaccard similarity to any set.
type Set struct {
	Ranks  []int32
	Tokens []string
	Ranked bool
}

// Len returns the number of tokens in s.
func (s Set) Len() int { return len(s.Ranks) + len(s.Tokens) }

// RankSet returns s, an unranked set, ranked for rt, built in dst's
// storage, which the result then owns; it shares none of s's storage.
func (rt *RankTable) RankSet(s, dst Set) Set {
	ranks, rest := dst.Ranks[:0], dst.Tokens[:0]
	if cap(ranks) < len(s.Tokens) {
		ranks = make([]int32, 0, max(len(s.Tokens), 2*cap(ranks)))
	}
	for _, tok := range s.Tokens {
		if r, ok := rt.Ranks[tok]; ok {
			ranks = append(ranks, int32(r))
		} else {
			rest = append(rest, tok)
		}
	}
	slices.Sort(ranks)
	return Set{Ranks: ranks, Tokens: rest, Ranked: true}
}

// Jaccard returns the Jaccard similarity of two sets, ranking an
// unranked one for rt when the other is ranked.
func (rt *RankTable) Jaccard(a, b Set) float64 {
	switch {
	case a.Ranked == b.Ranked:
	case a.Ranked:
		b = rt.RankSet(b, Set{})
	default:
		a = rt.RankSet(a, Set{})
	}
	return Similarity(Overlap(a.Ranks, b.Ranks)+Overlap(a.Tokens, b.Tokens), a.Len(), b.Len())
}

// AppendPrefix appends the prefix ranks of s to dst: what
// AppendPrefixRanks appends for its tokens. A ranked set's ranks are
// sorted already and every token it leaves unranked ranks Next, after
// them all, so it needs no lookup and no sort.
func (rt *RankTable) AppendPrefix(dst []int, s Set, threshold float64) []int {
	if !s.Ranked {
		return rt.AppendPrefixRanks(dst, s.Tokens, threshold)
	}
	n := PrefixLength(s.Len(), threshold)
	m := min(n, len(s.Ranks))
	for _, r := range s.Ranks[:m] {
		dst = append(dst, int(r))
	}
	for range n - m {
		dst = append(dst, rt.Next)
	}
	return dst
}

// MarshalWire encodes a ranked set: the rank count, the first rank and
// each later rank's difference from the one before (all uvarints, the
// differences at least 1), then the unranked tokens' count and the
// tokens. An unranked set has no wire form; rank it first.
func (s Set) MarshalWire(e *wire.Encoder) {
	if !s.Ranked {
		panic("text: an unranked set has no wire form")
	}
	e.Uvarint(uint64(len(s.Ranks)))
	prev := int32(0)
	for _, r := range s.Ranks {
		e.Uvarint(uint64(r - prev))
		prev = r
	}
	e.Uvarint(uint64(len(s.Tokens)))
	for _, tok := range s.Tokens {
		e.String(tok)
	}
}

// rankChunk is the ranks a decoding Set allocates room for at once.
const rankChunk = 512

// UnmarshalWire decodes what MarshalWire wrote. Every rank and token
// takes at least one byte, which bounds the counts; ranks that do not
// increase, a rank past MaxInt32, and tokens out of order or repeated
// are rejected. The ranks go in the spare capacity past s.Ranks when it
// has room, else in a new chunk of at least rankChunk, so decoding set
// after set into one Set allocates once per chunk and leaves the sets
// decoded before it intact; the decoded Ranks keep the chunk's room
// past their end, for the next decode, so they must not be appended to.
func (s *Set) UnmarshalWire(d *wire.Decoder) error {
	n, err := d.UvarintCount(1)
	if err != nil {
		return err
	}
	ranks := s.Ranks[len(s.Ranks):]
	if cap(ranks) < n {
		ranks = make([]int32, 0, max(n, rankChunk))
	}
	ranks = ranks[:n]
	prev := int64(0)
	for i := range ranks {
		delta, err := d.Uvarint()
		if err != nil {
			return err
		}
		if i > 0 && delta == 0 {
			return fmt.Errorf("text: set rank %d does not increase", i)
		}
		if delta > uint64(math.MaxInt32-prev) {
			return fmt.Errorf("text: set rank %d overflows int32", i)
		}
		prev += int64(delta)
		ranks[i] = int32(prev)
	}
	m, err := d.UvarintCount(1)
	if err != nil {
		return err
	}
	var toks []string
	if m > 0 {
		toks = make([]string, m)
	}
	for i := range toks {
		if toks[i], err = d.String(); err != nil {
			return err
		}
		if i > 0 && toks[i] <= toks[i-1] {
			return fmt.Errorf("text: set token %d is out of order", i)
		}
	}
	*s = Set{Ranks: ranks, Tokens: toks, Ranked: true}
	return nil
}
