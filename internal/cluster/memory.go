// Memory budget. A query may carry a total memory budget, split evenly
// across partitions. The budget selects no code path: it sizes the
// shuffle's frame cut (deliver holds one frame of at most half a
// partition's share in flight per destination) and the engine's
// COMBINE builds, and both charge what they hold to the budget-tracked
// gauge behind PeakMemory. The delivered records (the operator's
// materialized input) are tracked separately as PeakInput.
package cluster

// SetMemoryBudget gives the cluster a total memory budget in bytes,
// split evenly across partitions. Zero (the default) disables all
// memory bounding.
func (c *Cluster) SetMemoryBudget(total int64) {
	if total < 0 {
		total = 0
	}
	c.memBudget = total
}

// MemoryBudget returns the total memory budget (0 = unbounded).
func (c *Cluster) MemoryBudget() int64 { return c.memBudget }

// PartitionBudget returns one partition's share of the memory budget,
// or 0 when no budget is set.
func (c *Cluster) PartitionBudget() int64 {
	if c.memBudget <= 0 {
		return 0
	}
	b := c.memBudget / int64(c.Partitions())
	if b < 1 {
		b = 1
	}
	return b
}
