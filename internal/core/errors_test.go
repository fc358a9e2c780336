package core

import (
	"errors"
	"strings"
	"testing"
)

// panicSpec is a minimal valid join that panics in a configurable
// phase.
func panicSpec(name string, mutate func(*Spec[int64, int64, int64, int64])) Join {
	s := Spec[int64, int64, int64, int64]{
		Name:       name,
		NewSummary: func() int64 { return 0 },
		LocalAggLeft: func(key, s int64) int64 {
			if s < key {
				return key
			}
			return s
		},
		GlobalAgg: func(a, b int64) int64 {
			if a < b {
				return b
			}
			return a
		},
		Divide:     func(l, r int64, _ []any) (int64, error) { return l + r, nil },
		AssignLeft: func(_ int64, _ int64, dst []BucketID) []BucketID { return append(dst, 0) },
		Verify:     func(_ BucketID, l int64, _ BucketID, r int64, _ int64) bool { return l == r },
	}
	mutate(&s)
	return Wrap(s)
}

// panicDescriptor is a join whose Descriptor panics; RunStandalone must
// read it under its guard.
type panicDescriptor struct{ Join }

func (panicDescriptor) Descriptor() Descriptor { panic("descriptor boom") }

func intKeys(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestStandalonePanicIsolation(t *testing.T) {
	// SUMMARIZE, ASSIGN and PREPARE panic on key 3 only, so the error
	// must name exactly that record (a key is prepared at SUMMARIZE);
	// VERIFY panics on its first pair (record 0).
	cases := []struct {
		name   string
		phase  string
		record int
		mutate func(*Spec[int64, int64, int64, int64])
	}{
		{"summarize", "summarize", 3, func(s *Spec[int64, int64, int64, int64]) {
			s.LocalAggLeft = func(k, s int64) int64 {
				if k == 3 {
					panic("agg boom")
				}
				return s
			}
		}},
		{"divide", "divide", -1, func(s *Spec[int64, int64, int64, int64]) {
			s.Divide = func(int64, int64, []any) (int64, error) { panic("divide boom") }
		}},
		{"assign", "assign", 3, func(s *Spec[int64, int64, int64, int64]) {
			s.AssignLeft = func(k int64, _ int64, dst []BucketID) []BucketID {
				if k == 3 {
					panic("assign boom")
				}
				return append(dst, 0)
			}
		}},
		{"prepare", "summarize", 3, func(s *Spec[int64, int64, int64, int64]) {
			s.Prepare = func(raw any) int64 {
				if raw.(int64) == 3 {
					panic("prepare boom")
				}
				return raw.(int64)
			}
		}},
		{"verify", "combine", 0, func(s *Spec[int64, int64, int64, int64]) {
			s.Verify = func(BucketID, int64, BucketID, int64, int64) bool { panic("verify boom") }
		}},
		{"descriptor", "create", -1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var j Join = panicDescriptor{}
			if tc.mutate != nil {
				j = panicSpec("panic_"+tc.name, tc.mutate)
			}
			_, err := RunStandalone(j, intKeys(5), intKeys(5), nil, func(l, r any) {})
			if err == nil {
				t.Fatal("RunStandalone swallowed the panic")
			}
			var ue *UDFError
			if !errors.As(err, &ue) {
				t.Fatalf("error is %T, want *UDFError: %v", err, err)
			}
			if ue.Phase != tc.phase {
				t.Errorf("phase = %q, want %q", ue.Phase, tc.phase)
			}
			if ue.Partition != -1 {
				t.Errorf("partition = %d, want -1 (standalone)", ue.Partition)
			}
			if ue.Record != tc.record {
				t.Errorf("record = %d, want %d", ue.Record, tc.record)
			}
			if ue.Stack == "" {
				t.Error("no stack captured")
			}
			if !strings.Contains(ue.Error(), "boom") {
				t.Errorf("message %q should carry the panic value", ue.Error())
			}
		})
	}
}

func TestUDFErrorRendering(t *testing.T) {
	e := &UDFError{Join: "j", Phase: "assign", Partition: 3, Record: 7, Panic: "pow"}
	msg := e.Error()
	for _, want := range []string{"fudj j", "assign", "partition 3", "record 7", "pow"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q should contain %q", msg, want)
		}
	}
	coord := &UDFError{Join: "j", Phase: "divide", Partition: -1, Record: -1, Panic: "pow"}
	if !strings.Contains(coord.Error(), "coordinator") {
		t.Errorf("coordinator message: %q", coord.Error())
	}
}

func TestCatchPanicNoPanic(t *testing.T) {
	var err error
	func() {
		defer CatchPanic("j", "assign", 0, nil, &err)
	}()
	if err != nil {
		t.Errorf("CatchPanic set an error without a panic: %v", err)
	}
}
