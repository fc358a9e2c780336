// Package text provides the tokenization, token-frequency ranking,
// prefix-filter, and Jaccard-similarity machinery behind the
// text-similarity FUDJ (§V-B), which follows the prefix-filtering
// set-similarity join of Vernica et al. / Kim et al.
package text

import (
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode"
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
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
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
// rarest token. Tokens absent from the table are treated as globally
// unique and rank below (rarer than) everything present. This is the
// TokenRanks structure carried inside the text-similarity PPlan.
type RankTable struct {
	Ranks map[string]int
	// next is the synthetic rank handed to unseen tokens; all unseen
	// tokens share it, which is safe because a token unseen at summary
	// time appears in at most the records being assigned right now.
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

// PrefixRanks returns the ranks of the p rarest tokens of the given
// token set, sorted ascending (rarest first), where
// p = PrefixLength(len(tokens), threshold). These ranks are the bucket
// ids the record is assigned to.
func (rt *RankTable) PrefixRanks(tokens []string, threshold float64) []int {
	return rt.AppendPrefixRanks(nil, tokens, threshold)
}

// AppendPrefixRanks appends PrefixRanks(tokens, threshold) to dst and
// returns the extended slice. It ranks every token into dst's tail,
// sorts the tail in place and truncates it to the prefix, so with room
// in dst it allocates nothing.
func (rt *RankTable) AppendPrefixRanks(dst []int, tokens []string, threshold float64) []int {
	n := len(dst)
	for _, tok := range tokens {
		dst = append(dst, rt.Rank(tok))
	}
	slices.Sort(dst[n:])
	return dst[:n+PrefixLength(len(tokens), threshold)]
}
