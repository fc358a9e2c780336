package types

import (
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
