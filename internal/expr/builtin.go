package expr

import (
	"fmt"
	"slices"

	"fudj/internal/geo"
	"fudj/internal/interval"
	"fudj/internal/text"
	"fudj/internal/types"
)

// Builtin is a scalar function over engine values.
type Builtin func(args []types.Value) (types.Value, error)

// builtins is the registry of built-in scalar functions; names are
// lowercase, lookup is case-insensitive at the parser.
var builtins = map[string]Builtin{
	"st_make_point":        stMakePoint,
	"st_contains":          stContains,
	"st_intersects":        stIntersects,
	"st_distance":          stDistance,
	"word_tokens":          wordTokens,
	"similarity_jaccard":   similarityJaccard,
	"interval":             makeInterval,
	"interval_overlapping": intervalOverlapping,
	"abs":                  absFn,
	"len":                  lenFn,
}

// LookupBuiltin finds a built-in scalar function by name.
func LookupBuiltin(name string) (Builtin, bool) {
	f, ok := builtins[name]
	return f, ok
}

func wantArgs(name string, args []types.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func asFloat(name string, v types.Value) (float64, error) {
	f, ok := v.AsFloat()
	if !ok {
		return 0, fmt.Errorf("%s: %v is not numeric", name, v.Kind())
	}
	return f, nil
}

func stMakePoint(args []types.Value) (types.Value, error) {
	if err := wantArgs("st_make_point", args, 2); err != nil {
		return types.Null, err
	}
	x, err := asFloat("st_make_point", args[0])
	if err != nil {
		return types.Null, err
	}
	y, err := asFloat("st_make_point", args[1])
	if err != nil {
		return types.Null, err
	}
	return types.NewPoint(geo.Point{X: x, Y: y}), nil
}

// geometryMBR extracts geometry semantics from a value.
func spatialArg(name string, v types.Value) (types.Value, error) {
	switch v.Kind() {
	case types.KindPoint, types.KindRect, types.KindPolygon, types.KindLineString:
		return v, nil
	}
	return types.Null, fmt.Errorf("%s: %v is not a geometry", name, v.Kind())
}

func stContains(args []types.Value) (types.Value, error) {
	if err := wantArgs("st_contains", args, 2); err != nil {
		return types.Null, err
	}
	outer, err := spatialArg("st_contains", args[0])
	if err != nil {
		return types.Null, err
	}
	inner, err := spatialArg("st_contains", args[1])
	if err != nil {
		return types.Null, err
	}
	switch outer.Kind() {
	case types.KindPolygon:
		switch inner.Kind() {
		case types.KindPoint:
			return types.NewBool(outer.Polygon().ContainsPoint(inner.Point())), nil
		case types.KindRect:
			// Conservative: polygon contains rect if it contains all corners.
			r := inner.Rect()
			p := outer.Polygon()
			ok := p.ContainsPoint(geo.Point{X: r.MinX, Y: r.MinY}) &&
				p.ContainsPoint(geo.Point{X: r.MinX, Y: r.MaxY}) &&
				p.ContainsPoint(geo.Point{X: r.MaxX, Y: r.MinY}) &&
				p.ContainsPoint(geo.Point{X: r.MaxX, Y: r.MaxY})
			return types.NewBool(ok), nil
		}
	case types.KindRect:
		switch inner.Kind() {
		case types.KindPoint:
			return types.NewBool(outer.Rect().ContainsPoint(inner.Point())), nil
		case types.KindRect:
			return types.NewBool(outer.Rect().ContainsRect(inner.Rect())), nil
		case types.KindPolygon:
			return types.NewBool(outer.Rect().ContainsRect(inner.Polygon().MBR())), nil
		}
	}
	return types.Null, fmt.Errorf("st_contains: unsupported pair %v ⊇ %v", outer.Kind(), inner.Kind())
}

func stIntersects(args []types.Value) (types.Value, error) {
	if err := wantArgs("st_intersects", args, 2); err != nil {
		return types.Null, err
	}
	a, err := spatialArg("st_intersects", args[0])
	if err != nil {
		return types.Null, err
	}
	b, err := spatialArg("st_intersects", args[1])
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(ValuesIntersect(a, b)), nil
}

// ValuesIntersect is the exact geometric intersection test between two
// spatial values, dispatching on their kinds. It is used both by the
// st_intersects builtin and by the spatial join verify stage.
func ValuesIntersect(a, b types.Value) bool {
	ag, aok := a.Geometry()
	bg, bok := b.Geometry()
	return aok && bok && geo.Intersects(ag, bg)
}

func stDistance(args []types.Value) (types.Value, error) {
	if err := wantArgs("st_distance", args, 2); err != nil {
		return types.Null, err
	}
	a, err := spatialArg("st_distance", args[0])
	if err != nil {
		return types.Null, err
	}
	b, err := spatialArg("st_distance", args[1])
	if err != nil {
		return types.Null, err
	}
	if a.Kind() == types.KindPoint && b.Kind() == types.KindPoint {
		return types.NewFloat64(a.Point().Distance(b.Point())), nil
	}
	if a.Kind() == types.KindLineString && b.Kind() == types.KindLineString {
		// Exact closest approach between trajectories.
		return types.NewFloat64(a.LineString().Distance(b.LineString())), nil
	}
	am, _ := a.MBR()
	bm, _ := b.MBR()
	return types.NewFloat64(am.Distance(bm)), nil
}

func wordTokens(args []types.Value) (types.Value, error) {
	if err := wantArgs("word_tokens", args, 1); err != nil {
		return types.Null, err
	}
	if args[0].Kind() != types.KindString {
		return types.Null, fmt.Errorf("word_tokens: want string, got %v", args[0].Kind())
	}
	toks := text.Tokenize(args[0].Str())
	vals := make([]types.Value, len(toks))
	for i, tok := range toks {
		vals[i] = types.NewString(tok)
	}
	return types.NewList(vals), nil
}

// tokenSet returns v's tokens as the sorted set Jaccard takes: a
// string's TokenSet, or a sorted copy of a token list without repeats.
func tokenSet(name string, v types.Value) ([]string, error) {
	switch v.Kind() {
	case types.KindString:
		return text.TokenSet(v.Str()), nil
	case types.KindList:
		list := v.List()
		out := make([]string, len(list))
		for i, e := range list {
			if e.Kind() != types.KindString {
				return nil, fmt.Errorf("%s: list element %d is %v, want string", name, i, e.Kind())
			}
			out[i] = e.Str()
		}
		slices.Sort(out)
		return slices.Compact(out), nil
	}
	return nil, fmt.Errorf("%s: want string or token list, got %v", name, v.Kind())
}

func similarityJaccard(args []types.Value) (types.Value, error) {
	if err := wantArgs("similarity_jaccard", args, 2); err != nil {
		return types.Null, err
	}
	a, err := tokenSet("similarity_jaccard", args[0])
	if err != nil {
		return types.Null, err
	}
	b, err := tokenSet("similarity_jaccard", args[1])
	if err != nil {
		return types.Null, err
	}
	return types.NewFloat64(text.Jaccard(a, b)), nil
}

func makeInterval(args []types.Value) (types.Value, error) {
	if err := wantArgs("interval", args, 2); err != nil {
		return types.Null, err
	}
	if args[0].Kind() != types.KindInt64 || args[1].Kind() != types.KindInt64 {
		return types.Null, fmt.Errorf("interval: want two int64 ticks")
	}
	iv := interval.Interval{Start: args[0].Int64(), End: args[1].Int64()}
	if !iv.Valid() {
		return types.Null, fmt.Errorf("interval: end %d before start %d", iv.End, iv.Start)
	}
	return types.NewInterval(iv), nil
}

func intervalOverlapping(args []types.Value) (types.Value, error) {
	if err := wantArgs("interval_overlapping", args, 2); err != nil {
		return types.Null, err
	}
	if args[0].Kind() != types.KindInterval || args[1].Kind() != types.KindInterval {
		return types.Null, fmt.Errorf("interval_overlapping: want two intervals, got %v and %v",
			args[0].Kind(), args[1].Kind())
	}
	return types.NewBool(args[0].Interval().Overlaps(args[1].Interval())), nil
}

func absFn(args []types.Value) (types.Value, error) {
	if err := wantArgs("abs", args, 1); err != nil {
		return types.Null, err
	}
	switch args[0].Kind() {
	case types.KindInt64:
		v := args[0].Int64()
		if v < 0 {
			v = -v
		}
		return types.NewInt64(v), nil
	case types.KindFloat64:
		v := args[0].Float64()
		if v < 0 {
			v = -v
		}
		return types.NewFloat64(v), nil
	}
	return types.Null, fmt.Errorf("abs: want numeric, got %v", args[0].Kind())
}

func lenFn(args []types.Value) (types.Value, error) {
	if err := wantArgs("len", args, 1); err != nil {
		return types.Null, err
	}
	switch args[0].Kind() {
	case types.KindString:
		return types.NewInt64(int64(len(args[0].Str()))), nil
	case types.KindList:
		return types.NewInt64(int64(len(args[0].List()))), nil
	}
	return types.Null, fmt.Errorf("len: want string or list, got %v", args[0].Kind())
}
