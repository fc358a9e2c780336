package engine

import (
	"math/rand"
	"strings"
	"testing"

	"fudj/internal/core"
	"fudj/internal/joins/textsim"
	"fudj/internal/types"
)

// TestTextSimPreparedKeyPaths checks the two ways a key reaches the
// text-similarity join's functions. The engine prepares each key into a
// token set once per record; a caller of the untyped Join methods
// passes raw strings, which are prepared inside each call. Over notes
// with mixed case, punctuation and non-ASCII words, the engine (without
// a budget, and spilling under one), RunStandalone and a nested loop
// over raw-key Verify must find the same pairs, for both the avoidance
// and the elimination variant, in a self-join and a two-sided join.
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
