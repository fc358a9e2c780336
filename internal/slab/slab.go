// Package slab hands out small values from chunked, write-once slabs,
// so n of them cost one allocation per chunk rather than one each, and
// builds interfaces over slab slots, so boxing a value into an `any`
// need not allocate either. The executors' per-task key boxing
// (types.Boxer, core.Preparer) and the value decoder's polygons and
// polylines, carved per batch column, are its users.
package slab

import (
	"math/bits"
	"reflect"
	"unsafe"
)

// Slab hands out write-once slots from the chunk in hand, starting a
// fresh chunk when it is full; a full chunk is never touched again, so
// a pointer or slice into one stays valid and unchanged for as long as
// it is reachable, and keeps the whole chunk alive.
type Slab[T any] []T

// Put writes x to the next slot and returns the slot's address; a new
// chunk holds chunk slots.
func (s *Slab[T]) Put(x T, chunk int) *T {
	if len(*s) == cap(*s) {
		*s = make([]T, 0, max(chunk, 1))
	}
	*s = append(*s, x)
	return &(*s)[len(*s)-1]
}

// Carve returns the next n slots, zeroed, as one slice with cap == len,
// so appending to it copies instead of writing into a neighbour. A new
// chunk holds max(chunk, n) slots.
func (s *Slab[T]) Carve(n, chunk int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(chunk, n))
	}
	i := len(*s)
	*s = (*s)[:i+n]
	return (*s)[i : i+n : i+n]
}

// Fit returns how many slots of T to give a chunk meant to hold want
// slots in whole units of unit slots (a polygon ring's points), so that
// the runtime allocates the chunk at its own size, not rounded up to a
// larger size class. It tries the sizes the runtime allocates exactly
// — powers of two and three times powers of two, size classes up to
// 32 KiB and whole pages beyond — from the largest at most want slots'
// bytes down, and takes the first that whole units fill, less the
// 8-byte header the runtime puts before an object with pointers of more
// than 512 bytes and less than 32 KiB; when none is filled exactly, the
// largest. What the chunk leaves of want is for a later chunk; want of
// at most one unit gets one unit, the allocation a lone value costs.
func Fit[T any](want, unit int) int {
	u := unit * int(unsafe.Sizeof(*new(T)))
	b := want * int(unsafe.Sizeof(*new(T)))
	if want <= unit || u <= 0 {
		return unit
	}
	scan := hasPointers(reflect.TypeFor[T]())
	room := func(c int) int {
		if scan && c > 512 && c < 32<<10 {
			return c - 8
		}
		return c
	}
	largest := 0
	// c runs down 3p/2, p, 3p/4, p/2, … for p the largest power of two
	// at most b, skipping a 3p/2 above b.
	for p := 1 << (bits.Len(uint(b)) - 1); p >= u/2 && p > 0; p /= 2 {
		for _, c := range [2]int{p + p/2, p} {
			if c > b || room(c) < u {
				continue
			}
			if largest == 0 {
				largest = room(c) / u
			}
			if room(c)%u == 0 {
				return room(c) / u * unit
			}
		}
	}
	return max(largest, 1) * unit
}

// hasPointers reports whether t's values hold a pointer the garbage
// collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer,
		reflect.Slice, reflect.String, reflect.Interface:
		return true
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	}
	return false
}

// eface is the runtime's layout of an interface with no methods; an
// interface with methods has its data word in the same place. Boxing a
// pointer to the slot instead would change the type callers see
// (*geo.Point for geo.Point).
type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// TypeWord returns the type word of an interface holding a T, when such
// an interface points at a copy of its T, the interfaces Box builds. It
// returns nil when T is an interface type, whose values keep their own
// dynamic type, or pointer-shaped, stored in the interface word itself;
// either boxes without allocating. The word is the runtime type that
// reflect.Type's data word points at, so reading it allocates nothing.
func TypeWord[T any]() unsafe.Pointer {
	t := reflect.TypeFor[T]()
	if t.Kind() == reflect.Interface || pointerShaped(t) {
		return nil
	}
	return (*eface)(unsafe.Pointer(&t)).data
}

// pointerShaped reports whether t's values are one pointer word, which
// an interface stores directly: the compiler's rule, a pointer, map,
// channel, function or unsafe pointer, or a struct or array of exactly
// one such.
func pointerShaped(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Struct:
		return t.NumField() == 1 && pointerShaped(t.Field(0).Type)
	case reflect.Array:
		return t.Len() == 1 && pointerShaped(t.Elem())
	}
	return false
}

// Box returns the interface of dynamic type typ, a word TypeWord
// returned, whose payload is at data, which nothing may write
// afterwards.
func Box(typ, data unsafe.Pointer) (x any) {
	e := (*eface)(unsafe.Pointer(&x))
	e.typ, e.data = typ, data
	return x
}
