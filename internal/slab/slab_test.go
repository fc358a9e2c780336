package slab

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

type (
	onePointer  struct{ p *int }
	pointerPair struct{ p, q *int }
	nested      struct{ inner onePointer }
)

// boxed returns x boxed through a slab slot when TypeWord allows it, and
// x as Go boxes it otherwise.
func boxed[T any](s *Slab[T], x T) any {
	if typ := TypeWord[T](); typ != nil {
		return Box(typ, unsafe.Pointer(s.Put(x, 4)))
	}
	return x
}

// check boxes x both ways and compares dynamic type and value, and
// whether TypeWord builds this type over a slot.
func check[T any](t *testing.T, x T, slot bool) {
	t.Helper()
	var s Slab[T]
	got, want := boxed(&s, x), any(x)
	if reflect.TypeOf(got) != reflect.TypeOf(want) || !reflect.DeepEqual(got, want) {
		t.Errorf("%T: slab box %#v (%T), Go box %#v (%T)", x, got, got, want, want)
	}
	if (TypeWord[T]() != nil) != slot {
		t.Errorf("%v: TypeWord built over a slot = %v, want %v", reflect.TypeFor[T](), !slot, slot)
	}
}

// TestTypeWordShapes checks Box over a slot against Go's own boxing for
// the shapes the rule tells apart: values stored behind the interface's
// data pointer (built over a slot) and interface or pointer-shaped
// types (boxed as Go boxes them).
func TestTypeWordShapes(t *testing.T) {
	n := 5
	check(t, int64(1<<40), true)
	check(t, "a string", true)
	check(t, []string{"a", "b"}, true)
	check(t, [2]float64{1, 2}, true)
	check(t, struct{}{}, true)
	check(t, pointerPair{&n, nil}, true)
	check(t, [2]*int{&n, &n}, true)
	check(t, &n, false)
	check(t, map[string]int{"a": 1}, false)
	check(t, make(chan int), false)
	check(t, onePointer{&n}, false)
	check(t, nested{onePointer{&n}}, false)
	check(t, [1]*int{&n}, false)
	check(t, unsafe.Pointer(&n), false)
	check[fmt.Stringer](t, reflect.TypeFor[int](), false)
	check[any](t, int64(3), false)
}

// TestSlabSlotsStayPut boxes strings across several chunks, drops the
// slab, collects, and finds every value intact; carved runs are
// disjoint, zeroed and full at cap == len.
func TestSlabSlotsStayPut(t *testing.T) {
	var s Slab[string]
	boxes := make([]any, 33)
	for i := range boxes {
		boxes[i] = Box(TypeWord[string](), unsafe.Pointer(s.Put(fmt.Sprint("v", i), 8)))
	}
	s = nil
	runtime.GC()
	for i, b := range boxes {
		if b.(string) != fmt.Sprint("v", i) {
			t.Errorf("box %d = %q after a collection", i, b)
		}
	}

	var pts Slab[[2]float64]
	a, b := pts.Carve(3, 8), pts.Carve(4, 8)
	big := pts.Carve(20, 8)
	if len(a) != 3 || cap(a) != 3 || len(b) != 4 || cap(b) != 4 || len(big) != 20 {
		t.Fatalf("carved lens/caps %d/%d %d/%d %d", len(a), cap(a), len(b), cap(b), len(big))
	}
	for _, run := range [][][2]float64{a, b, big} {
		for _, p := range run {
			if p != ([2]float64{}) {
				t.Fatal("carved slot not zero")
			}
		}
	}
	a[2] = [2]float64{9, 9}
	a = append(a, [2]float64{1, 1})
	if b[0] != ([2]float64{}) || a[2] != ([2]float64{9, 9}) {
		t.Error("appending to a carved run wrote into its neighbour")
	}
}

type (
	point   struct{ X, Y float64 } // 16 bytes, no pointers
	polygon struct {
		ring []point
		m    [5]int64
	} // 64 bytes, with a pointer
)

var (
	pointSink   []point
	polygonSink []polygon
)

// chunkBytes returns the bytes the runtime allocates for one chunk of n
// slots: the least mean of five rounds, as a collection during a round
// can add a few bytes of its own.
func chunkBytes(alloc func()) int64 {
	least := int64(1 << 62)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 50 {
			alloc()
		}
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc)/50)
	}
	return least
}

// TestFitAllocatesExactly checks Fit's choices, and that the runtime
// allocates each chosen chunk at exactly its own size, the point of
// Fit: a pointer-free chunk takes the largest exact size class whole
// units fill, a chunk with pointers 32 KiB or at most 512 bytes (the
// sizes between carry an 8-byte header), and a want of one unit is
// one unit. Five-point rings fill no such size exactly, so their chunk
// leaves less than a ring unused.
func TestFitAllocatesExactly(t *testing.T) {
	for _, c := range []struct{ want, unit, slots, waste int }{
		{2048, 6, 1536, 0}, // 24 KiB of six-point rings, not 2046 points in 32 KiB
		{1200, 6, 768, 0},
		{232 * 6, 6, 128 * 6, 0},
		{12, 6, 12, 0},
		{6, 6, 6, 0},
		{5, 6, 6, 0},
		{2048, 1, 2048, 0},
		{1000, 1, 768, 0},
		{300 * 5, 5, 204 * 5, 64}, // 16 KiB, 64 bytes short of a 205th ring
	} {
		got := Fit[point](c.want, c.unit)
		if got != c.slots {
			t.Errorf("Fit[point](%d, %d) = %d, want %d", c.want, c.unit, got, c.slots)
		}
		if b := chunkBytes(func() { pointSink = make([]point, got) }); b != int64(got*16+c.waste) {
			t.Errorf("a chunk of %d points allocated %d bytes, want %d", got, b, got*16+c.waste)
		}
	}
	for _, c := range []struct{ want, slots int }{{512, 512}, {600, 512}, {300, 8}, {8, 8}, {5, 4}, {1, 1}} {
		got := Fit[polygon](c.want, 1)
		if got != c.slots {
			t.Errorf("Fit[polygon](%d, 1) = %d, want %d", c.want, got, c.slots)
		}
		if b := chunkBytes(func() { polygonSink = make([]polygon, got) }); b != int64(got)*64 {
			t.Errorf("a chunk of %d polygons allocated %d bytes, want %d", got, b, got*64)
		}
	}
}
