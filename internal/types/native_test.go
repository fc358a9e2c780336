package types

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"fudj/internal/geo"
	"fudj/internal/interval"
)

func TestNativeConversions(t *testing.T) {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	cases := []struct {
		v    Value
		want any
	}{
		{Null, nil},
		{NewBool(true), true},
		{NewInt64(-3), int64(-3)},
		{NewFloat64(1.5), 1.5},
		{NewString("x"), "x"},
		{NewPoint(geo.Point{X: 1, Y: 2}), geo.Point{X: 1, Y: 2}},
		{NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}), geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		{NewInterval(interval.Interval{Start: 1, End: 2}), interval.Interval{Start: 1, End: 2}},
	}
	for _, c := range cases {
		got := c.v.Native()
		if got != c.want {
			t.Errorf("Native(%v) = %#v, want %#v", c.v, got, c.want)
		}
	}
	// Polygon converts to its pointer.
	if got := NewPolygon(poly).Native(); got != poly {
		t.Errorf("Native(polygon) = %v", got)
	}
	// String lists become []string.
	sl := NewList([]Value{NewString("a"), NewString("b")}).Native().([]string)
	if len(sl) != 2 || sl[1] != "b" {
		t.Errorf("string list native = %v", sl)
	}
	// Mixed lists become []any.
	ml := NewList([]Value{NewInt64(1), NewString("b")}).Native().([]any)
	if len(ml) != 2 || ml[0] != int64(1) {
		t.Errorf("mixed list native = %v", ml)
	}
}

func TestGeometryExtraction(t *testing.T) {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	for _, v := range []Value{
		NewPoint(geo.Point{X: 1, Y: 1}),
		NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
		NewPolygon(poly),
	} {
		g, ok := v.Geometry()
		if !ok || g == nil {
			t.Errorf("Geometry(%v) failed", v)
		}
		if g.Bounds().IsEmpty() {
			t.Errorf("Geometry(%v) has empty bounds", v)
		}
	}
	if _, ok := NewInt64(1).Geometry(); ok {
		t.Error("int should not be a geometry")
	}
}

func TestValueStrings(t *testing.T) {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	cases := map[string]Value{
		"null":           Null,
		"true":           NewBool(true),
		"-42":            NewInt64(-42),
		"2.5":            NewFloat64(2.5),
		`"hi"`:           NewString("hi"),
		"POINT(1 2)":     NewPoint(geo.Point{X: 1, Y: 2}),
		"[3,9]":          NewInterval(interval.Interval{Start: 3, End: 9}),
		"RECT(0 0, 1 1)": NewRect(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
	if s := NewPolygon(poly).String(); !strings.Contains(s, "POLYGON(3 vertices") {
		t.Errorf("polygon String = %q", s)
	}
	if s := NewList([]Value{NewInt64(1), NewString("a")}).String(); s != `[1, "a"]` {
		t.Errorf("list String = %q", s)
	}
	rec := Record{NewInt64(1), NewString("x")}
	if got := rec.String(); got != `{1, "x"}` {
		t.Errorf("record String = %q", got)
	}
}

func TestKindAndIsNull(t *testing.T) {
	if Null.Kind() != KindNull || !Null.IsNull() {
		t.Error("Null kind")
	}
	if NewInt64(1).IsNull() {
		t.Error("int is not null")
	}
	if KindPolygon.String() != "polygon" || Kind(200).String() == "" {
		t.Error("Kind strings")
	}
}

func TestNativePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for corrupt kind")
		}
	}()
	v := Value{kind: Kind(99)}
	v.Native()
}

// TestBoxerMatchesNative checks Boxer.Native against Value.Native on
// every kind: the same dynamic type and the same value (a float by its
// bits, so -0 and NaN count), and a spatial kind still a geo.Geometry.
// It then boxes points and strings across several chunks, drops the
// Boxer, collects, and finds every value intact: no slot was
// overwritten or freed while an interface pointed into it.
func TestBoxerMatchesNative(t *testing.T) {
	poly := geo.NewPolygon([]geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}})
	line := geo.NewLineString([]geo.Point{{X: 0, Y: 0}, {X: 2, Y: 1}})
	vals := []Value{
		Null, NewBool(false), NewBool(true),
		NewInt64(0), NewInt64(255), NewInt64(256), NewInt64(1 << 40), NewInt64(-1), NewInt64(math.MinInt64),
		NewFloat64(0), NewFloat64(math.Copysign(0, -1)), NewFloat64(1.5), NewFloat64(-2.25),
		NewFloat64(math.NaN()), NewFloat64(math.Inf(-1)),
		NewString(""), NewString("x"), NewString("a longer string"),
		NewPoint(geo.Point{X: 1, Y: -2}), NewRect(geo.Rect{MinX: 0, MinY: 1, MaxX: 2, MaxY: 3}),
		NewPolygon(poly), NewLineString(line),
		NewInterval(interval.Interval{Start: 1, End: 2}), NewInterval(interval.Interval{Start: -300, End: 1 << 50}),
		NewList([]Value{NewString("a"), NewString("b")}),
		NewList([]Value{NewInt64(1000), NewPoint(geo.Point{X: 3, Y: 4})}),
	}
	b := NewBoxer(2)
	for _, v := range vals {
		got, want := b.Native(v), v.Native()
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("%v: Boxer.Native is a %T, Native a %T", v, got, want)
			continue
		}
		if !sameNative(got, want) {
			t.Errorf("%v: Boxer.Native = %#v, Native = %#v", v, got, want)
		}
		switch v.Kind() {
		case KindPoint, KindRect, KindPolygon, KindLineString:
			if _, ok := got.(geo.Geometry); !ok {
				t.Errorf("%v: Boxer.Native is a %T, not a geo.Geometry", v, got)
			}
		}
		if v.Kind() == KindPoint && got.(geo.Point) != v.Point() {
			t.Errorf("%v: Boxer.Native as a geo.Point = %v", v, got)
		}
	}

	const chunk = 16
	b = NewBoxer(chunk)
	points := make([]any, 2*chunk+1)
	strs := make([]any, len(points))
	for i := range points {
		points[i] = b.Native(NewPoint(geo.Point{X: float64(i), Y: -float64(i)}))
		strs[i] = b.Native(NewString(strconv.Itoa(1000 + i)))
	}
	b = nil
	runtime.GC()
	for range 64 {
		churn = append(churn[:0], make([]geo.Point, chunk), make([]string, chunk))
	}
	for i := range points {
		if p := points[i].(geo.Point); p != (geo.Point{X: float64(i), Y: -float64(i)}) {
			t.Errorf("point %d = %v after a collection", i, p)
		}
		if s := strs[i].(string); s != strconv.Itoa(1000+i) {
			t.Errorf("string %d = %q after a collection", i, s)
		}
	}
}

// churn keeps TestBoxerMatchesNative's garbage from being optimized away.
var churn []any

// sameNative reports whether two native values are equal, floats by
// their bits and slices element by element.
func sameNative(a, b any) bool {
	switch a := a.(type) {
	case float64:
		return math.Float64bits(a) == math.Float64bits(b.(float64))
	case []string, []any:
		return reflect.DeepEqual(a, b)
	}
	return a == b
}

// TestBoxerAllocatesPerChunk pins the point of a Boxer: boxing 1 024
// point keys allocates once per slab chunk, where Value.Native
// allocates once per key.
func TestBoxerAllocatesPerChunk(t *testing.T) {
	const n, chunk = 1024, 256
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = NewPoint(geo.Point{X: float64(i), Y: 1})
	}
	keys := make([]any, n)
	allocs := testing.AllocsPerRun(10, func() {
		b := NewBoxer(chunk)
		for i, v := range vals {
			keys[i] = b.Native(v)
		}
	})
	if want := float64(n / chunk); allocs > want {
		t.Errorf("boxing %d points in chunks of %d allocated %.0f times, want at most %.0f", n, chunk, allocs, want)
	}
}
