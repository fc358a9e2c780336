package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"fudj/internal/core"
	"fudj/internal/joins/textsim"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// TestTextSimPreparedKeyPaths checks the two ways a key reaches the
// text-similarity join's functions. The engine prepares each key into a
// token set once per record; a caller of the untyped Join methods
// passes raw strings, which are prepared inside each call. Over notes
// with mixed case, punctuation and non-ASCII words, the engine (without
// a budget, and spilling under one), RunStandalone and a nested loop
// over raw-key Verify must find the same pairs, for both the avoidance
// and the elimination variant, in a self-join and a two-sided join. A
// third variant hides textsim.New behind struct{ core.Join }, so it
// neither prepares nor rekeys in either executor: core.AssignAll calls
// its Assign per raw key, and each call prepares the key it is given.
func TestTextSimPreparedKeyPaths(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(38))
	words := []string{"Lake", "lake", "LAKE!", "trail,", "Trail", "café", "CAFÉ", "naïve", "river-side", "42", "straße", "forest"}
	notes := make([]types.Record, 90)
	raw := make([]any, len(notes))
	for i := range notes {
		w := make([]string, 2+rng.Intn(4))
		for j := range w {
			w[j] = words[rng.Intn(len(words))]
		}
		raw[i] = strings.Join(w, " ")
		notes[i] = types.Record{types.NewInt64(int64(i % 2)), types.NewString(raw[i].(string))}
	}
	schema := types.NewSchema(
		types.Field{Name: "side", Kind: types.KindInt64},
		types.Field{Name: "note", Kind: types.KindString},
	)
	if err := db.CreateDataset("notes", schema, notes); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `CREATE JOIN text_similarity_elim(a: string, b: string, t: double) RETURNS boolean AS "setsimilarity.SetSimilarityJoinElimination" AT flexiblejoins`)
	hidden := func() core.Join { return struct{ core.Join }{textsim.New()} }
	lib := core.NewLibrary("hiddenlib")
	lib.MustRegister("test.HiddenTextSim", hidden)
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `CREATE JOIN text_similarity_hidden(a: string, b: string, t: double) RETURNS boolean AS "test.HiddenTextSim" AT hiddenlib`)
	const threshold = 0.6
	// even/odd are the two sides of the two-sided join.
	var even, odd []any
	for i, k := range raw {
		if i%2 == 0 {
			even = append(even, k)
		} else {
			odd = append(odd, k)
		}
	}
	sides := []struct {
		where       string
		left, right []any
	}{
		{"", raw, raw},
		{"a.side = 0 AND b.side = 1 AND ", even, odd},
	}
	variants := []struct {
		join string
		mk   func() core.Join
	}{
		{"text_similarity_join", textsim.New},
		{"text_similarity_elim", textsim.NewElimination},
		{"text_similarity_hidden", hidden},
	}
	for _, v := range variants {
		for _, s := range sides {
			// The oracle: every pair through the untyped methods, raw
			// strings in, so castKey prepares them.
			j := v.mk()
			ls, rs := j.NewSummary(core.Left), j.NewSummary(core.Right)
			for _, k := range s.left {
				ls = j.LocalAggregate(core.Left, k, ls)
			}
			for _, k := range s.right {
				rs = j.LocalAggregate(core.Right, k, rs)
			}
			plan, err := j.Divide(ls, rs, []any{threshold})
			if err != nil {
				t.Fatal(err)
			}
			var want, standalone []types.Record
			for _, l := range s.left {
				for _, r := range s.right {
					if j.Verify(0, l, 0, r, plan) {
						want = append(want, notePair(l, r))
					}
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s %q: the oracle found no pairs", v.join, s.where)
			}
			if _, err := core.RunStandalone(v.mk(), s.left, s.right, []any{threshold}, func(l, r any) {
				standalone = append(standalone, notePair(l, r))
			}); err != nil {
				t.Fatal(err)
			}
			sameRows(t, v.join+" standalone "+s.where, standalone, want)

			sql := `SELECT a.note, b.note FROM notes a, notes b WHERE ` + s.where + v.join + `(a.note, b.note, 0.6)`
			for _, budget := range []int64{0, tinyBudget} {
				db.MustConfigure(WithMemoryBudget(budget))
				res := mustQuery(t, db, sql)
				sameRows(t, v.join+" engine "+s.where, res.Rows, want)
				if budget > 0 && res.Memory.SpillRuns == 0 {
					t.Errorf("%s %q: budget %d forced no spilling", v.join, s.where, budget)
				}
			}
		}
	}
}

func notePair(l, r any) types.Record {
	return types.Record{types.NewString(l.(string)), types.NewString(r.(string))}
}

// shipKey is the key of rekeyJoin: a ride id, and whether Rekey made it.
type shipKey struct {
	id      int64
	rekeyed bool
}

func (k shipKey) MarshalWire(e *wire.Encoder) { e.Varint(k.id) }

// UnmarshalWire decodes a shipped key, which Rekey made.
func (k *shipKey) UnmarshalWire(d *wire.Decoder) error {
	id, err := d.Varint()
	*k = shipKey{id: id, rekeyed: true}
	return err
}

// rekeyJoin joins ride ids equal mod 5, counting its Prepare and Rekey
// calls; ASSIGN and VERIFY refuse a key Rekey did not make.
func rekeyJoin(prepares, rekeys *atomic.Int64) core.Join {
	mustRekeyed := func(k shipKey) {
		if !k.rekeyed {
			panic("a key that was not rekeyed")
		}
	}
	return core.Wrap(core.Spec[shipKey, shipKey, int64, int64]{
		Name: "rekey_join",
		Prepare: func(raw any) shipKey {
			prepares.Add(1)
			return shipKey{id: raw.(int64)}
		},
		Rekey: func(k shipKey, _ int64, _ shipKey) shipKey {
			rekeys.Add(1)
			return shipKey{id: k.id, rekeyed: true}
		},
		NewSummary:   func() int64 { return 0 },
		LocalAggLeft: func(_ shipKey, s int64) int64 { return s + 1 },
		GlobalAgg:    func(a, b int64) int64 { return a + b },
		Divide:       func(l, r int64, _ []any) (int64, error) { return l + r, nil },
		AssignLeft: func(k shipKey, _ int64, dst []core.BucketID) []core.BucketID {
			mustRekeyed(k)
			return append(dst, int(k.id%5))
		},
		Verify: func(_ core.BucketID, l shipKey, _ core.BucketID, r shipKey, _ int64) bool {
			mustRekeyed(l)
			mustRekeyed(r)
			return l.id%5 == r.id%5
		},
	})
}

// TestRekeyJoinPreparesNothingInCombine pins what Spec.Rekey buys: the
// engine prepares each record once, at SUMMARIZE, rekeys it once per
// side at ASSIGN and ships the result, so COMBINE decodes every key and
// prepares none; ASSIGN, VERIFY and DEDUP see only rekeyed keys, in the
// engine and in RunStandalone alike, and both return the nested loop's
// pairs.
func TestRekeyJoinPreparesNothingInCombine(t *testing.T) {
	db := newTestDB(t)
	var prepares, rekeys atomic.Int64
	lib := core.NewLibrary("rekeylib")
	lib.MustRegister("test.Rekey", func() core.Join { return rekeyJoin(&prepares, &rekeys) })
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, `CREATE JOIN rekey_join(a: int, b: int) RETURNS boolean AS "test.Rekey" AT rekeylib`)
	var left, right []any
	for _, r := range mustQuery(t, db, `SELECT id, vendor FROM rides`).Rows {
		if r[1].Int64() == 1 {
			left = append(left, r[0].Int64())
		} else {
			right = append(right, r[0].Int64())
		}
	}
	var want []types.Record
	for _, l := range left {
		for _, r := range right {
			if l.(int64)%5 == r.(int64)%5 {
				want = append(want, types.Record{types.NewInt64(l.(int64)), types.NewInt64(r.(int64))})
			}
		}
	}
	for _, budget := range []int64{0, tinyBudget} {
		db.MustConfigure(WithMemoryBudget(budget))
		prepares.Store(0)
		rekeys.Store(0)
		res := mustQuery(t, db, `SELECT n1.id, n2.id FROM rides n1, rides n2 WHERE n1.vendor = 1 AND n2.vendor = 2 AND rekey_join(n1.id, n2.id)`)
		sameRows(t, fmt.Sprintf("engine, budget %d", budget), res.Rows, want)
		n := int64(len(left) + len(right))
		if got := prepares.Load(); got != n {
			t.Errorf("budget %d: %d preparations for %d records, want one each, at SUMMARIZE only", budget, got, n)
		}
		if got := rekeys.Load(); got != n {
			t.Errorf("budget %d: %d rekeys for %d records, want one each", budget, got, n)
		}
	}
	var standalone []types.Record
	if _, err := core.RunStandalone(rekeyJoin(&prepares, &rekeys), left, right, nil, func(l, r any) {
		standalone = append(standalone, types.Record{types.NewInt64(l.(int64)), types.NewInt64(r.(int64))})
	}); err != nil {
		t.Fatal(err)
	}
	sameRows(t, "standalone", standalone, want)
}
