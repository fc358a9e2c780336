package engine

import (
	"fmt"
	"sync/atomic"

	"fudj/internal/cluster"
	"fudj/internal/expr"
	"fudj/internal/types"
	"fudj/internal/wire"
)

// Distributed grouped aggregation follows the classic two-step shape
// (the same shape FUDJ's SUMMARIZE reuses): each partition computes
// partial aggregates, partials are hash-exchanged on the group key,
// and each partition finalizes its groups. The local phase is a row
// sink (localAgg), so it runs either as its own pass over materialized
// rows or inside the last join's COMBINE, which then never builds the
// rows it would only count.

// aggState is one aggregate's running value.
type aggState struct {
	count int64
	sum   float64
	isInt bool  // sum/min/max seen only integers so far
	sumI  int64 // integer sum (exact for int inputs)
	min   types.Value
	max   types.Value
	seen  bool
}

func (s *aggState) fold(fn string, v types.Value) error {
	switch fn {
	case "count":
		if !v.IsNull() {
			s.count++
		}
		return nil
	case "sum", "avg":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("engine: %s over non-numeric %v", fn, v.Kind())
		}
		if v.Kind() == types.KindInt64 {
			s.sumI += v.Int64()
		} else {
			s.isInt = false
		}
		if !s.seen {
			s.isInt = v.Kind() == types.KindInt64
		}
		s.sum += f
		s.count++
		s.seen = true
		return nil
	case "min", "max":
		if !s.seen {
			s.min, s.max, s.seen = v, v, true
			return nil
		}
		if v.Compare(s.min) < 0 {
			s.min = v
		}
		if v.Compare(s.max) > 0 {
			s.max = v
		}
		return nil
	}
	return fmt.Errorf("engine: unknown aggregate %q", fn)
}

func (s *aggState) merge(fn string, o *aggState) {
	switch fn {
	case "count":
		s.count += o.count
	case "sum", "avg":
		if !o.seen {
			return
		}
		if !s.seen {
			*s = *o
			return
		}
		s.sum += o.sum
		s.sumI += o.sumI
		s.isInt = s.isInt && o.isInt
		s.count += o.count
		s.seen = true
	case "min", "max":
		if !o.seen {
			return
		}
		if !s.seen {
			*s = *o
			return
		}
		if o.min.Compare(s.min) < 0 {
			s.min = o.min
		}
		if o.max.Compare(s.max) > 0 {
			s.max = o.max
		}
	}
}

func (s *aggState) final(fn string) types.Value {
	switch fn {
	case "count":
		return types.NewInt64(s.count)
	case "sum":
		if !s.seen {
			return types.Null
		}
		if s.isInt {
			return types.NewInt64(s.sumI)
		}
		return types.NewFloat64(s.sum)
	case "avg":
		if !s.seen || s.count == 0 {
			return types.Null
		}
		return types.NewFloat64(s.sum / float64(s.count))
	case "min":
		if !s.seen {
			return types.Null
		}
		return s.min
	case "max":
		if !s.seen {
			return types.Null
		}
		return s.max
	}
	return types.Null
}

// encodePartial serializes an aggState into values that travel inside
// ordinary records through the exchange.
func (s *aggState) encodePartial() []types.Value {
	min, max := s.min, s.max
	if !s.seen {
		min, max = types.Null, types.Null
	}
	var isInt int64
	if s.isInt {
		isInt = 1
	}
	var seen int64
	if s.seen {
		seen = 1
	}
	return []types.Value{
		types.NewInt64(s.count),
		types.NewFloat64(s.sum),
		types.NewInt64(s.sumI),
		types.NewInt64(isInt),
		min,
		max,
		types.NewInt64(seen),
	}
}

const partialWidth = 7

func decodePartial(vals []types.Value) aggState {
	return aggState{
		count: vals[0].Int64(),
		sum:   vals[1].Float64(),
		sumI:  vals[2].Int64(),
		isInt: vals[3].Int64() == 1,
		min:   vals[4],
		max:   vals[5],
		seen:  vals[6].Int64() == 1,
	}
}

// appendGroupKey appends the bytes that key vals' group: each value's
// wire encoding, with -0.0 folded to 0.0 so that GROUP BY and DISTINCT,
// like the = operator, hold the two zeros as one value.
func appendGroupKey(e *wire.Encoder, vals []types.Value) {
	for _, v := range vals {
		if v.Kind() == types.KindFloat64 && v.Float64() == 0 {
			v = types.NewFloat64(0)
		}
		v.MarshalWire(e)
	}
}

// groupKey serializes group values into a comparable string.
func groupKey(vals []types.Value) string {
	e := wire.NewEncoder(32)
	appendGroupKey(e, vals)
	return string(e.Bytes())
}

// group is one group's values and its running aggregates.
type group struct {
	vals   []types.Value
	states []aggState
}

// groupTable finds a task's groups by their values. Groups are kept in
// first-seen order, not map order: partials feed the shuffle, and
// retried or speculated attempts must produce byte-identical output
// (TestByteIdenticalReexecution). One encoder serves every lookup, so
// a row that lands in a known group allocates nothing; without GROUP BY
// there is one group and no key at all.
type groupTable struct {
	nAggs int
	enc   *wire.Encoder
	byKey map[string]*group
	order []*group
}

func newGroupTable(nAggs int) *groupTable {
	return &groupTable{nAggs: nAggs, enc: wire.NewEncoder(32), byKey: make(map[string]*group)}
}

// lookup returns the group of vals, creating it on first sight. vals is
// copied then, so the caller may reuse it.
func (t *groupTable) lookup(vals []types.Value) *group {
	if len(vals) == 0 {
		if len(t.order) == 0 {
			t.order = append(t.order, &group{states: make([]aggState, t.nAggs)})
		}
		return t.order[0]
	}
	t.enc.Reset()
	appendGroupKey(t.enc, vals)
	if g, ok := t.byKey[string(t.enc.Bytes())]; ok {
		return g
	}
	g := &group{vals: append([]types.Value(nil), vals...), states: make([]aggState, t.nAggs)}
	t.byKey[string(t.enc.Bytes())] = g
	t.order = append(t.order, g)
	return g
}

// localAgg is the local phase of the plan's aggregation, compiled once
// per query against the schema of the rows it folds and shared by the
// partition tasks, each of which folds into its own partialAgg. When
// the phase runs inside COMBINE it also applies the filters that would
// have run between the join and the aggregation, and counts the rows
// passing each so the join and filter spans keep their rows.out.
type localAgg struct {
	aggs           []aggSpec
	groupEvals     []expr.Evaluator
	argEvals       []expr.Evaluator
	residual, post expr.Evaluator // nil when absent

	afterResidual, afterPost atomic.Int64
}

func (p *queryPlan) newLocalAgg(schema *types.Schema, residual, post []expr.Expr) (*localAgg, error) {
	a := &localAgg{aggs: p.aggs}
	for _, g := range p.groupBy {
		ev, err := expr.Compile(g, schema)
		if err != nil {
			return nil, err
		}
		a.groupEvals = append(a.groupEvals, ev)
	}
	for _, spec := range p.aggs {
		ev, err := expr.Compile(spec.arg, schema)
		if err != nil {
			return nil, err
		}
		a.argEvals = append(a.argEvals, ev)
	}
	filter := func(conjuncts []expr.Expr) (expr.Evaluator, error) {
		if len(conjuncts) == 0 {
			return nil, nil
		}
		return expr.Compile(expr.JoinConjuncts(conjuncts), schema)
	}
	var err error
	if a.residual, err = filter(residual); err != nil {
		return nil, err
	}
	if a.post, err = filter(post); err != nil {
		return nil, err
	}
	return a, nil
}

// partialAgg is one task's local aggregation state. It is a rowSink:
// rows are built in its scratch record and folded, never kept.
type partialAgg struct {
	plan    *localAgg
	groups  *groupTable
	gvals   []types.Value // group values of the row being folded
	scratch types.Record

	afterResidual, afterPost int64
}

func (a *localAgg) newTask() rowSink {
	return &partialAgg{plan: a, groups: newGroupTable(len(a.aggs)), gvals: make([]types.Value, len(a.groupEvals))}
}

func (t *partialAgg) alloc(n int) types.Record {
	if cap(t.scratch) < n {
		t.scratch = make(types.Record, 0, n)
	}
	return t.scratch[:0]
}

func (t *partialAgg) push(row types.Record) error {
	a := t.plan
	if ok, err := holds(a.residual, row); !ok {
		return err
	}
	t.afterResidual++
	if ok, err := holds(a.post, row); !ok {
		return err
	}
	t.afterPost++
	for i, ev := range a.groupEvals {
		v, err := ev(row)
		if err != nil {
			return err
		}
		t.gvals[i] = v
	}
	g := t.groups.lookup(t.gvals)
	for i, spec := range a.aggs {
		v, err := a.argEvals[i](row)
		if err != nil {
			return err
		}
		if err := g.states[i].fold(spec.fn, v); err != nil {
			return err
		}
	}
	return nil
}

// finish emits one partial record per group,
// [groupVals..., agg0 partial (7 vals), agg1 partial, ...].
func (t *partialAgg) finish() []types.Record {
	t.plan.afterResidual.Add(t.afterResidual)
	t.plan.afterPost.Add(t.afterPost)
	out := make([]types.Record, 0, len(t.groups.order))
	for _, g := range t.groups.order {
		row := make(types.Record, 0, len(g.vals)+partialWidth*len(g.states))
		row = append(row, g.vals...)
		for i := range g.states {
			row = append(row, g.states[i].encodePartial()...)
		}
		out = append(out, row)
	}
	return out
}

// runLocalAgg runs the local phase as its own pass over materialized
// rows — the case where no FUDJ COMBINE could fold it.
func (p *queryPlan) runLocalAgg(clus *cluster.Cluster, data cluster.Data, schema *types.Schema) (cluster.Data, error) {
	agg, err := p.newLocalAgg(schema, nil, nil)
	if err != nil {
		return nil, err
	}
	return clus.Run(data, func(_ int, in []types.Record) ([]types.Record, error) {
		t := agg.newTask()
		for _, rec := range in {
			if err := t.push(rec); err != nil {
				return nil, err
			}
		}
		return t.finish(), nil
	})
}

// runGroupBy finishes the aggregation over the local phase's partials:
// exchange by group key hash, then a final combine per partition.
func (p *queryPlan) runGroupBy(clus *cluster.Cluster, partials cluster.Data) ([]types.Record, error) {
	nG := len(p.groupBy)
	shuffled, err := clus.ExchangeHash(partials, func(r types.Record) uint64 {
		return types.HashString(groupKey(r[:nG]))
	})
	if err != nil {
		return nil, err
	}

	finals, err := clus.Run(shuffled, func(_ int, in []types.Record) ([]types.Record, error) {
		groups := newGroupTable(len(p.aggs))
		for _, rec := range in {
			g := groups.lookup(rec[:nG])
			off := nG
			for i, a := range p.aggs {
				part := decodePartial(rec[off : off+partialWidth])
				g.states[i].merge(a.fn, &part)
				off += partialWidth
			}
		}
		out := make([]types.Record, 0, len(groups.order))
		for _, g := range groups.order {
			row := append(types.Record{}, g.vals...)
			for i, a := range p.aggs {
				row = append(row, g.states[i].final(a.fn))
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rows := finals.Flatten()

	// Global aggregation over an empty input still returns one row.
	if nG == 0 && len(rows) == 0 {
		row := make(types.Record, len(p.aggs))
		for i, a := range p.aggs {
			row[i] = (&aggState{}).final(a.fn)
		}
		rows = []types.Record{row}
	}
	return rows, nil
}
