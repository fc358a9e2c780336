package text

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fudj/internal/wire"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"a a a b", []string{"a", "b"}},
		{"River; Scenic-Landscape Camping", []string{"river", "scenic", "landscape", "camping"}},
		{"  42 answers  ", []string{"42", "answers"}},
		{"ONE one One", []string{"one"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b"}, []string{"b", "c"}, 1.0 / 3.0},
		{[]string{"a", "b", "c", "d"}, []string{"c", "d", "e"}, 2.0 / 5.0},
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); got != c.want {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Jaccard(c.b, c.a); got != c.want {
			t.Errorf("Jaccard not symmetric for (%v, %v)", c.a, c.b)
		}
	}
}

func TestPrefixLength(t *testing.T) {
	cases := []struct {
		l    int
		t    float64
		want int
	}{
		{0, 0.9, 0},
		{10, 0.9, 2}, // 10 - ceil(9) + 1
		{10, 0.5, 6}, // 10 - 5 + 1
		{10, 1.0, 1}, // exact match still needs one token indexed
		{3, 0.9, 1},  // 3 - ceil(2.7)=3 + 1
		{5, 0.01, 5}, // near-zero threshold indexes everything
	}
	for _, c := range cases {
		if got := PrefixLength(c.l, c.t); got != c.want {
			t.Errorf("PrefixLength(%d, %v) = %d, want %d", c.l, c.t, got, c.want)
		}
	}
}

func TestBuildRankTable(t *testing.T) {
	rt := BuildRankTable(map[string]int64{"common": 100, "rare": 1, "mid": 10})
	if rt.Rank("rare") != 0 || rt.Rank("mid") != 1 || rt.Rank("common") != 2 {
		t.Errorf("ranks = rare:%d mid:%d common:%d", rt.Rank("rare"), rt.Rank("mid"), rt.Rank("common"))
	}
	if rt.Rank("never-seen") != 3 {
		t.Errorf("unseen rank = %d, want 3", rt.Rank("never-seen"))
	}
	if rt.Size() != 3 {
		t.Errorf("Size = %d, want 3", rt.Size())
	}
	// Ties broken deterministically by token text.
	rt2 := BuildRankTable(map[string]int64{"b": 5, "a": 5})
	if rt2.Rank("a") != 0 || rt2.Rank("b") != 1 {
		t.Error("tie-break by token text failed")
	}
}

func TestPrefixRanks(t *testing.T) {
	rt := BuildRankTable(map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4})
	got := rt.AppendPrefixRanks(nil, []string{"d", "b", "a", "c"}, 0.5)
	// l=4, p = 4 - 2 + 1 = 3; rarest three ranks are 0,1,2.
	want := []int{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendPrefixRanks(nil) = %v, want %v", got, want)
	}
}

// TestAppendPrefixRanks pins the appending form: it leaves dst's head
// alone, appends what it appends to nil, and with room in dst
// allocates nothing.
func TestAppendPrefixRanks(t *testing.T) {
	rt := BuildRankTable(map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4})
	toks := []string{"d", "b", "zz", "a", "c"} // "zz" is unseen: it ranks last
	dst := make([]int, 0, 16)
	dst = append(dst, 99, 98)
	got := rt.AppendPrefixRanks(dst, toks, 0.5)
	if want := append([]int{99, 98}, rt.AppendPrefixRanks(nil, toks, 0.5)...); !reflect.DeepEqual(got, want) {
		t.Errorf("AppendPrefixRanks = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { dst = rt.AppendPrefixRanks(dst[:0], toks, 0.5) }); allocs != 0 {
		t.Errorf("AppendPrefixRanks into a roomy dst allocated %.0f times, want 0", allocs)
	}
}

// Property: the prefix-filter is complete — any pair of token sets with
// Jaccard >= threshold shares at least one prefix rank. This is the
// invariant that makes the text-similarity FUDJ's ASSIGN lossless.
func TestQuickPrefixFilterCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	counts := make(map[string]int64)
	for i, tok := range vocab {
		counts[tok] = int64(i*i + 1)
	}
	rt := BuildRankTable(counts)

	randSet := func() []string {
		n := 1 + rng.Intn(8)
		seen := map[string]bool{}
		var out []string
		for len(out) < n {
			tok := vocab[rng.Intn(len(vocab))]
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
		slices.Sort(out) // Jaccard takes sorted sets
		return out
	}

	for _, threshold := range []float64{0.5, 0.7, 0.9} {
		for trial := 0; trial < 3000; trial++ {
			a, b := randSet(), randSet()
			if Jaccard(a, b) < threshold {
				continue
			}
			pa := rt.AppendPrefixRanks(nil, a, threshold)
			pb := rt.AppendPrefixRanks(nil, b, threshold)
			share := false
			for _, ra := range pa {
				for _, rb := range pb {
					if ra == rb {
						share = true
					}
				}
			}
			if !share {
				t.Fatalf("threshold %v: similar sets %v and %v share no prefix rank (%v vs %v)",
					threshold, a, b, pa, pb)
			}
		}
	}
}

// Property: Jaccard is bounded in [0,1] and equals 1 iff sets are equal.
func TestQuickJaccardBounds(t *testing.T) {
	f := func(a, b []string) bool {
		da, db := dedup(a), dedup(b)
		j := Jaccard(da, db)
		if j < 0 || j > 1 {
			return false
		}
		if j == 1 && !sameSet(da, db) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// dedup returns in as a sorted set, the form Jaccard takes.
func dedup(in []string) []string {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]bool{}
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}

// randomText draws a string from a small alphabet of mixed-case ASCII
// and non-ASCII letters, digits, punctuation and spaces, so tokens
// repeat, differ only by case, and span multi-byte runes.
func randomText(rng *rand.Rand) string {
	alphabet := []string{"a", "b", "A", "B", "é", "É", "ß", "ж", "Ж", "語", "7", " ", ",", "-", "!", "\t", "·"}
	var sb strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// Property: TokenSet is Tokenize sorted, and Jaccard over two token sets
// equals a brute-force count of their intersection and union.
func TestQuickTokenSetJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 5000; trial++ {
		a, b := randomText(rng), randomText(rng)
		want := Tokenize(a)
		slices.Sort(want)
		sa := TokenSet(a)
		if !slices.Equal(sa, want) {
			t.Fatalf("TokenSet(%q) = %q, want sorted Tokenize %q", a, sa, want)
		}
		sb := TokenSet(b)
		inter := 0
		for _, x := range sa {
			if slices.Contains(sb, x) {
				inter++
			}
		}
		brute := 0.0
		if union := len(sa) + len(sb) - inter; union > 0 {
			brute = float64(inter) / float64(union)
		}
		if got := Jaccard(sa, sb); got != brute {
			t.Fatalf("Jaccard(%q, %q) = %v, want %v", sa, sb, got, brute)
		}
	}
}

// TestTokenSetAllocs pins TokenSet's cost: on lower-case input its one
// allocation is the set itself.
func TestTokenSetAllocs(t *testing.T) {
	review := "great lake trail, quiet camping and 2 scenic river views near the lake"
	if got := testing.AllocsPerRun(100, func() { TokenSet(review) }); got > 1 {
		t.Errorf("TokenSet: %.0f allocations, want at most 1", got)
	}
	a, b := TokenSet(review), TokenSet("quiet lake camping")
	if got := testing.AllocsPerRun(100, func() { Jaccard(a, b) }); got != 0 {
		t.Errorf("Jaccard: %.0f allocations, want 0", got)
	}
}

// TestSetDecodesOverThePreviousSet pins what COMBINE relies on when it
// decodes key after key into one Set: each decode gives the set that
// was encoded, the sets decoded before stay intact, and their ranks
// share one chunk, so decoding them allocates once.
func TestSetDecodesOverThePreviousSet(t *testing.T) {
	rt := BuildRankTable(map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4})
	var want []Set
	var encs [][]byte
	for _, toks := range [][]string{{"a", "c"}, {"b", "c", "d"}, {}, {"d"}} {
		set := rt.RankSet(Set{Tokens: toks}, Set{})
		e := wire.NewEncoder(16)
		set.MarshalWire(e)
		want, encs = append(want, set), append(encs, e.Bytes())
	}
	var d wire.Decoder
	got := make([]Set, len(encs))
	allocs := testing.AllocsPerRun(10, func() {
		var s Set
		for i, b := range encs {
			d.Reset(b)
			if err := s.UnmarshalWire(&d); err != nil {
				t.Fatal(err)
			}
			got[i] = s
		}
	})
	for i := range want {
		if !slices.Equal(got[i].Ranks, want[i].Ranks) || len(got[i].Tokens) != 0 || !got[i].Ranked {
			t.Errorf("set %d decoded as %+v, want %+v", i, got[i], want[i])
		}
	}
	if allocs > 1 {
		t.Errorf("decoding %d sets into one Set allocated %.0f times, want 1", len(encs), allocs)
	}
}
