package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fudj/internal/types"
)

func payloadRecords(n, strLen int) []types.Record {
	recs := make([]types.Record, n)
	for i := range recs {
		recs[i] = types.Record{
			types.NewInt64(int64(i)),
			types.NewString(strings.Repeat("p", strLen)),
		}
	}
	return recs
}

// referenceShuffle is the delivery order every exchange must produce,
// as one single-goroutine walk: sources in partition order, each
// source's records in order.
func referenceShuffle(pre Data, route Route) Data {
	out := make(Data, len(pre))
	for src, in := range pre {
		for i, r := range in {
			for _, dst := range route(src, i, r, nil) {
				out[dst] = append(out[dst], r)
			}
		}
	}
	return out
}

func sameRecords(a, b []types.Record) bool {
	return bytes.Equal(types.EncodeRecords(a), types.EncodeRecords(b))
}

// TestShuffleDeliveryBudgetsAndCorruption runs every exchange variant through the one
// delivery path at no budget, a tiny budget and a roomy one, with and
// without injected frame corruption. Budget and faults change framing
// and resends, never results: each partition must equal the reference
// walk and what Received recomputes for it.
func TestShuffleDeliveryBudgetsAndCorruption(t *testing.T) {
	const parts = 4
	variants := []struct {
		name  string
		route Route
		run   func(c *Cluster, data Data, route Route) (Data, error)
	}{
		{"Exchange", // one destination per record
			func(_, _ int, r types.Record, dsts []int) []int { return append(dsts, int(r[0].Int64()+1)%parts) },
			func(c *Cluster, data Data, route Route) (Data, error) { return c.ExchangeMulti(data, route) }},
		{"ExchangeMulti",
			// Every third record is dropped, the rest multicast to two
			// partitions, one chosen by position within the source.
			func(src, i int, r types.Record, dsts []int) []int {
				if id := int(r[0].Int64()); id%3 != 0 {
					dsts = append(dsts, id%parts, (src+i+2)%parts)
				}
				return dsts
			},
			func(c *Cluster, data Data, route Route) (Data, error) { return c.ExchangeMulti(data, route) }},
		{"Replicate", ReplicateRoute(parts),
			func(c *Cluster, data Data, _ Route) (Data, error) { return c.Replicate(data) }},
		{"ExchangeRandom", RandomRoute(parts),
			func(c *Cluster, data Data, _ Route) (Data, error) { return c.ExchangeRandom(data) }},
	}
	const tiny, roomy = 8 << 10, 64 << 20
	for _, v := range variants {
		for _, budget := range []int64{0, tiny, roomy} {
			for _, corruptProb := range []float64{0, 0.3} {
				t.Run(fmt.Sprintf("%s/budget=%d/corrupt=%v", v.name, budget, corruptProb), func(t *testing.T) {
					c := New(Config{Nodes: 2, CoresPerNode: 2})
					c.SetBatchSize(32) // several frames per transfer even without a budget
					c.SetMemoryBudget(budget)
					if corruptProb > 0 {
						c.SetFaults(NewFaultInjector(FaultConfig{Seed: 11, CorruptProb: corruptProb}))
						// Enough attempts that no frame of the run exhausts them.
						c.SetRetryPolicy(RetryPolicy{MaxAttempts: 12})
					}
					pre := c.Scatter(payloadRecords(400, 64))
					got, err := v.run(c, pre, v.route)
					if err != nil {
						t.Fatal(err)
					}
					want := referenceShuffle(pre, v.route)
					for part := range want {
						if !sameRecords(got[part], want[part]) {
							t.Errorf("partition %d: %d records delivered, differ from the %d of the reference walk", part, len(got[part]), len(want[part]))
						}
						if !sameRecords(Received(pre, v.route, part), got[part]) {
							t.Errorf("partition %d: Received does not reproduce the delivery", part)
						}
					}

					m := c.Metrics().Snapshot()
					if budget == 0 && (m.PeakMemory != 0 || m.PeakInput != 0) {
						t.Errorf("no budget, but PeakMemory = %d, PeakInput = %d", m.PeakMemory, m.PeakInput)
					}
					if budget > 0 && (m.PeakMemory <= 0 || m.PeakMemory > budget || m.PeakInput <= 0) {
						t.Errorf("PeakMemory = %d outside (0, %d], PeakInput = %d", m.PeakMemory, budget, m.PeakInput)
					}
					if (m.Backpressure > 0) != (budget == tiny) {
						t.Errorf("Backpressure = %d at budget %d", m.Backpressure, budget)
					}
					if m.BytesSpilled != 0 {
						t.Error("delivery alone should not spill")
					}
					if (m.CorruptHealed > 0) != (corruptProb > 0) {
						t.Errorf("CorruptHealed = %d at CorruptProb %v", m.CorruptHealed, corruptProb)
					}
				})
			}
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on, so a test can cancel at an exact point of a delivery.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShuffleCancelMidDelivery cancels the query context while frames
// are moving. Delivery asks the context once per frame, so it must
// return the context's error having sent no more frames than the
// context answered "go on" to, and leave no goroutine behind.
func TestShuffleCancelMidDelivery(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetBatchSize(1) // one frame per record
	const goOn = 1000 // far more than the outbox fill asks, far fewer than the 20000 frames
	ctx := &cancelAfter{Context: context.Background()}
	ctx.left.Store(goOn)
	c.SetContext(ctx)
	pre := c.Scatter(intRecords(20000))
	before := runtime.NumGoroutine()

	// Every record crosses the node boundary, so Batches counts every frame.
	_, err := c.ExchangeMulti(pre, func(src, _ int, _ types.Record, dsts []int) []int { return append(dsts, (src+2)%4) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sent := c.Metrics().Snapshot().Batches; sent < goOn/2 || sent > goOn {
		t.Errorf("%d frames sent, want just under %d: one per go-on the delivery was given", sent, goOn)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, %d before the exchange", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
