// Fixture outside the restricted set: the flagged shape stays silent.
package b

import "sync/atomic"

func unrestricted(in []int, n *atomic.Int64) func() {
	return func() {
		for range in {
			for range in {
				n.Add(1)
			}
		}
	}
}
