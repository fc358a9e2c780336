package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fudj/internal/types"
)

// doubler is the transform used by most recovery tests: its output is
// easy to verify after any amount of retrying.
func doubler(_ int, in []types.Record) ([]types.Record, error) {
	out := make([]types.Record, len(in))
	for i, r := range in {
		out[i] = types.Record{types.NewInt64(r[0].Int64() * 2)}
	}
	return out, nil
}

func TestFaultInjectorDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 99, CrashProb: 0.3, CorruptProb: 0.3}
	a := NewFaultInjector(cfg)
	b := NewFaultInjector(cfg)
	for epoch := int64(0); epoch < 10; epoch++ {
		for part := 0; part < 8; part++ {
			for attempt := 0; attempt < 4; attempt++ {
				ea := a.crash(epoch, 0, part, attempt)
				eb := b.crash(epoch, 0, part, attempt)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("crash decision diverged at epoch=%d part=%d attempt=%d", epoch, part, attempt)
				}
				if a.corrupt(epoch, int64(part), 0, int64(attempt)) != b.corrupt(epoch, int64(part), 0, int64(attempt)) {
					t.Fatalf("corrupt decision diverged at epoch=%d part=%d attempt=%d", epoch, part, attempt)
				}
			}
		}
	}
	if a.Crashes() != b.Crashes() || a.Corruptions() != b.Corruptions() {
		t.Errorf("counters diverged: %d/%d vs %d/%d", a.Crashes(), a.Corruptions(), b.Crashes(), b.Corruptions())
	}
	if a.Crashes() == 0 || a.Corruptions() == 0 {
		t.Errorf("expected some injections at p=0.3, got crashes=%d corruptions=%d", a.Crashes(), a.Corruptions())
	}
}

func TestRetryRecoversFromCrashes(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{Seed: 7, CrashProb: 0.5}))
	data := c.Scatter(intRecords(20))
	out, err := c.Run(data, doubler)
	if err != nil {
		t.Fatalf("Run with crashes: %v", err)
	}
	got := recordInts(out.Flatten())
	for i, v := range got {
		if v != int64(i*2) {
			t.Fatalf("result corrupted after retries: got[%d] = %d", i, v)
		}
	}
	m := c.Metrics().Snapshot()
	if c.Faults().Crashes() == 0 {
		t.Error("no crashes injected at p=0.5")
	}
	if m.Retries == 0 || m.Recovered == 0 {
		t.Errorf("expected retries and recoveries, got retries=%d recovered=%d", m.Retries, m.Recovered)
	}
}

func TestFailedNodeRecovers(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{Seed: 1, FailedNodes: []int{0}}))
	data := c.Scatter(intRecords(8))
	out, err := c.Run(data, doubler)
	if err != nil {
		t.Fatalf("Run with failed node: %v", err)
	}
	if out.Rows() != 8 {
		t.Errorf("Rows = %d, want 8", out.Rows())
	}
	// Node 0 hosts partitions 0 and 1; both first attempts crash.
	if got := c.Metrics().Snapshot().Retries; got < 2 {
		t.Errorf("Retries = %d, want >= 2", got)
	}
	if got := c.Metrics().Snapshot().Recovered; got < 2 {
		t.Errorf("Recovered = %d, want >= 2", got)
	}
}

func TestRetryExhaustionReportsAllPartitions(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{Seed: 3, CrashProb: 1.0}))
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	data := c.Scatter(intRecords(8))
	_, err := c.Run(data, doubler)
	if err == nil {
		t.Fatal("Run should fail when every attempt crashes")
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Errorf("error should unwrap to *FaultError, got %v", err)
	}
	msg := err.Error()
	for part := 0; part < 4; part++ {
		if !strings.Contains(msg, fmt.Sprintf("partition %d:", part)) {
			t.Errorf("aggregated error does not name partition %d:\n%s", part, msg)
		}
	}
	if !strings.Contains(msg, "gave up after 3 attempts") {
		t.Errorf("error should mention attempt exhaustion:\n%s", msg)
	}
}

func TestErrorAggregationJoinsPartitions(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.Scatter(intRecords(8))
	boom := errors.New("boom")
	_, err := c.Run(data, func(part int, in []types.Record) ([]types.Record, error) {
		if part == 1 || part == 3 {
			return nil, fmt.Errorf("task %d: %w", part, boom)
		}
		return in, nil
	})
	if err == nil {
		t.Fatal("Run should fail")
	}
	if !errors.Is(err, boom) {
		t.Error("errors.Is should see the underlying task error")
	}
	msg := err.Error()
	for _, want := range []string{"partition 1:", "partition 3:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q should contain %q", msg, want)
		}
	}
	if strings.Contains(msg, "partition 0:") || strings.Contains(msg, "partition 2:") {
		t.Errorf("error should not blame healthy partitions: %s", msg)
	}
	// Deterministic task errors must not be retried.
	if got := c.Metrics().Snapshot().Retries; got != 0 {
		t.Errorf("Retries = %d for non-retryable errors, want 0", got)
	}
}

func TestStragglerSpeculation(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{
		Seed:           5,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 150 * time.Millisecond,
	}))
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond, SpeculativeAfter: 5 * time.Millisecond})
	data := c.Scatter(intRecords(16))
	start := time.Now()
	out, err := c.Run(data, doubler)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Run with stragglers: %v", err)
	}
	if out.Rows() != 16 {
		t.Errorf("Rows = %d, want 16", out.Rows())
	}
	if got := c.Metrics().Snapshot().Speculative; got != 4 {
		t.Errorf("Speculative = %d, want 4 (every partition straggled)", got)
	}
	if elapsed >= 150*time.Millisecond {
		t.Errorf("speculation did not sidestep the %v delay: elapsed %v", 150*time.Millisecond, elapsed)
	}
}

func TestShuffleCorruptionHealed(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	c.SetFaults(NewFaultInjector(FaultConfig{Seed: 17, CorruptProb: 0.5}))
	data := c.Scatter(intRecords(40))
	p := c.Partitions()
	// Reverse routing: every move crosses the node boundary.
	out, err := c.ExchangeMulti(data, func(_, _ int, r types.Record, dsts []int) []int {
		return append(dsts, p-1-int(r[0].Int64())%p)
	})
	if err != nil {
		t.Fatalf("ExchangeMulti with corruption: %v", err)
	}
	got := recordInts(out.Flatten())
	if len(got) != 40 {
		t.Fatalf("lost records: %d of 40", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("record content damaged: got[%d] = %d", i, v)
		}
	}
	if c.Faults().Corruptions() == 0 {
		t.Error("no corruptions injected at p=0.5")
	}
	if c.Metrics().Snapshot().CorruptHealed == 0 {
		t.Error("expected healed corruptions")
	}
}

func TestShuffleCorruptionExhausts(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 1})
	c.SetFaults(NewFaultInjector(FaultConfig{Seed: 2, CorruptProb: 1.0}))
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	data := c.Scatter(intRecords(4))
	_, err := c.ExchangeMulti(data, func(src, _ int, _ types.Record, dsts []int) []int { return append(dsts, 1-src) })
	if err == nil {
		t.Fatal("ExchangeMulti should fail when every transfer corrupts")
	}
	if !strings.Contains(err.Error(), "decode failed after 2 attempts") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExchangeRandomPerSourceCounters(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	data := c.NewData()
	// All records start on partition 0: destinations must cycle from
	// partition 0 (the old global counter skipped it).
	for i := 0; i < 8; i++ {
		data[0] = append(data[0], types.Record{types.NewInt64(int64(i))})
	}
	out, err := c.ExchangeRandom(data)
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < 4; dst++ {
		got := recordInts(out[dst])
		want := []int64{int64(dst), int64(dst + 4)}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("partition %d got %v, want %v", dst, got, want)
		}
	}
}

func TestExchangeRandomDeterministic(t *testing.T) {
	run := func() [][]int64 {
		c := New(Config{Nodes: 2, CoresPerNode: 2})
		out, err := c.ExchangeRandom(c.Scatter(intRecords(23)))
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]int64, len(out))
		for i, p := range out {
			parts[i] = recordInts(p)
		}
		return parts
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("partition %d sizes differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("partition %d differs between runs", i)
			}
		}
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.SetContext(ctx)
	_, err := c.Run(c.Scatter(intRecords(8)), doubler)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := c.Metrics().Snapshot().Tasks; got != 0 {
		t.Errorf("tasks ran under a cancelled context: %d", got)
	}
}

func TestRunCancelMidFlight(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.SetContext(ctx)
	started := make(chan struct{}, 4)
	go func() {
		for i := 0; i < 4; i++ {
			<-started // wait until every task is in flight
		}
		cancel()
	}()
	_, err := c.Run(c.Scatter(intRecords(8)), func(_ int, in []types.Record) ([]types.Record, error) {
		started <- struct{}{}
		<-ctx.Done() // a well-behaved task observes the query context
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	c := New(Config{Nodes: 2, CoresPerNode: 2})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c.SetContext(ctx)
	_, err := c.Run(c.Scatter(intRecords(8)), doubler)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestBackoffCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if d := p.backoff(1); d != time.Millisecond {
		t.Errorf("backoff(1) = %v", d)
	}
	if d := p.backoff(2); d != 2*time.Millisecond {
		t.Errorf("backoff(2) = %v", d)
	}
	if d := p.backoff(8); d != 4*time.Millisecond {
		t.Errorf("backoff(8) = %v, want capped at 4ms", d)
	}
}

func TestIsRetryable(t *testing.T) {
	fe := &FaultError{Kind: FaultCrash, Node: 1, Part: 2, Attempt: 0}
	if !IsRetryable(fe) {
		t.Error("FaultError should be retryable")
	}
	if !IsRetryable(fmt.Errorf("wrapped: %w", fe)) {
		t.Error("wrapped FaultError should be retryable")
	}
	if IsRetryable(errors.New("boom")) {
		t.Error("plain errors are not retryable")
	}
	if !strings.Contains(fe.Error(), "task crash") {
		t.Errorf("FaultError message: %s", fe.Error())
	}
}
