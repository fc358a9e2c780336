// Fixture for the hotatomic analyzer, loaded as a restricted package:
// a shared atomic bumped per candidate pair inside a task closure is a
// finding; task-local counts, task-local atomics and once-per-record
// Adds are not.
package a

import "sync/atomic"

type counters struct {
	candidates atomic.Int64
	verified   atomic.Int64
}

var global int64

func run(parts [][]int, f func(part int, in []int)) {
	for p, in := range parts {
		f(p, in)
	}
}

func flaggedCaptured(parts [][]int, c *counters) {
	run(parts, func(_ int, in []int) {
		for _, l := range in {
			for _, r := range in {
				c.candidates.Add(1) // want `atomic Add on captured c inside 2 nested loops`
				if l == r {
					c.verified.Add(1) // want `atomic Add on captured c inside 2 nested loops`
				}
			}
		}
	})
}

func flaggedPackageLevel(parts [][]int) {
	run(parts, func(_ int, in []int) {
		for range in {
			for i := 0; i < len(in); i++ {
				for range in {
					atomic.AddInt64(&global, 1) // want `atomic Add on package-level global`
				}
			}
		}
	})
}

var pairs atomic.Int64

// flaggedPlainLoop is shaped like core.JoinBuckets, a plain function's
// loop over a bucket pair; pair like engine.combineTask.pair, a method
// with no loop of its own, called per verified pair.
func flaggedPlainLoop(lk, rk []int) {
	for range lk {
		for range rk {
			pairs.Add(1) // want `atomic Add on package-level pairs`
		}
	}
}

func (c *counters) pair() { pairs.Add(1) } // want `atomic Add on package-level pairs`

// okTaskLocal counts in plain fields and folds once per task: the
// pattern the rule exists to keep.
func okTaskLocal(parts [][]int, c *counters) {
	run(parts, func(_ int, in []int) {
		var candidates int64
		for range in {
			for range in {
				candidates++
			}
		}
		c.candidates.Add(candidates)
	})
}

// okLocalAtomic declares the atomic inside the closure: nothing outside
// the task contends for it.
func okLocalAtomic(parts [][]int) {
	run(parts, func(_ int, in []int) {
		var n atomic.Int64
		for range in {
			for range in {
				n.Add(1)
			}
		}
	})
}

// okSingleLoop adds once per record, not per pair.
func okSingleLoop(parts [][]int, c *counters) {
	run(parts, func(_ int, in []int) {
		for range in {
			c.candidates.Add(1)
		}
	})
}

// okInnerLiteral: loops do not carry into a literal nested inside them;
// the inner literal is a closure of its own with no loop around the Add.
func okInnerLiteral(parts [][]int, c *counters, each func(func())) {
	run(parts, func(_ int, in []int) {
		for range in {
			for range in {
				each(func() { c.verified.Add(1) })
			}
		}
	})
}
