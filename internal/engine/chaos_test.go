package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fudj/internal/cluster"
	"fudj/internal/core"
	"fudj/internal/types"
)

// chaosConfig is the acceptance configuration: 20% task crashes, one
// straggler node, 5% shuffle corruption — all deterministic per seed.
func chaosConfig(seed int64) *cluster.FaultConfig {
	return &cluster.FaultConfig{
		Seed:           seed,
		CrashProb:      0.2,
		StragglerNodes: []int{1},
		StragglerDelay: 15 * time.Millisecond,
		CorruptProb:    0.05,
	}
}

// chaosRetry gives the injector room to recover: more attempts than the
// default, fast backoff, and speculation armed well under the injected
// straggler delay.
func chaosRetry() cluster.RetryPolicy {
	return cluster.RetryPolicy{
		MaxAttempts:      8,
		BaseBackoff:      50 * time.Microsecond,
		MaxBackoff:       time.Millisecond,
		SpeculativeAfter: 3 * time.Millisecond,
	}
}

var chaosQueries = []struct {
	name string
	sql  string
}{
	{"spatial", `
		SELECT p.id, w.id FROM parks p, wildfires w
		WHERE spatial_join(p.boundary, w.location, 8)`},
	{"textsim", `
		SELECT r1.id, r2.id FROM reviews r1, reviews r2
		WHERE r1.overall = 5 AND r2.overall = 4
		  AND text_similarity_join(r1.review, r2.review, 0.8)`},
	{"interval", `
		SELECT n1.id, n2.id FROM rides n1, rides n2
		WHERE n1.vendor = 1 AND n2.vendor = 2
		  AND overlapping_interval(n1.ride_interval, n2.ride_interval, 50)`},
}

// TestChaosEquivalence is the headline fault-tolerance property: under
// injected crashes, a straggler node, and shuffle corruption, every
// example join must produce results identical to a fault-free run.
func TestChaosEquivalence(t *testing.T) {
	db := newTestDB(t)
	baseline := make(map[string][]types.Record)
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		if len(res.Rows) == 0 {
			t.Fatalf("%s: baseline produced no rows", q.name)
		}
		baseline[q.name] = res.Rows
	}

	db.MustConfigure(WithFaults(chaosConfig(1)))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	var healed int64
	for _, q := range chaosQueries {
		res := mustQuery(t, db, q.sql)
		sameRows(t, q.name+" under chaos", res.Rows, baseline[q.name])
		if res.Faults.Retries == 0 {
			t.Errorf("%s: no retries at crash p=0.2 — injection not wired through", q.name)
		}
		if res.Faults.Recovered == 0 {
			t.Errorf("%s: no recovered tasks", q.name)
		}
		healed += res.Faults.CorruptionsHealed
		t.Logf("%s: retries=%d recovered=%d speculative=%d healed=%d",
			q.name, res.Faults.Retries, res.Faults.Recovered, res.Faults.Speculative, res.Faults.CorruptionsHealed)
	}
	if healed == 0 {
		t.Error("no corrupted shuffle payloads were healed across the suite at p=0.05")
	}
}

// TestChaosDeterminism pins the injector contract: the same seed
// replays the same faults, so two chaos runs agree with each other.
func TestChaosDeterminism(t *testing.T) {
	db := newTestDB(t)
	db.MustConfigure(WithFaults(chaosConfig(777)))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	first := mustQuery(t, db, chaosQueries[0].sql)
	second := mustQuery(t, db, chaosQueries[0].sql)
	sameRows(t, "chaos determinism", first.Rows, second.Rows)
}

// TestChaosDisarm verifies a nil fault config turns injection back off.
func TestChaosDisarm(t *testing.T) {
	db := newTestDB(t)
	db.MustConfigure(WithFaults(chaosConfig(1)))
	db.MustConfigure(WithRetryPolicy(chaosRetry()))
	if res := mustQuery(t, db, chaosQueries[2].sql); res.Faults.Retries == 0 {
		t.Fatal("armed run saw no retries")
	}
	db.MustConfigure(WithFaults(nil))
	if res := mustQuery(t, db, chaosQueries[2].sql); res.Faults.Retries != 0 {
		t.Errorf("disarmed run still retried %d times", res.Faults.Retries)
	}
}

// awaitGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers), failing on timeout — the
// leak check for cancelled queries.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQueryDeadlineExpired(t *testing.T) {
	db := newTestDB(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := db.ExecuteContext(ctx, chaosQueries[0].sql)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Error("expired query returned a result")
	}
	awaitGoroutines(t, base)
}

func TestQueryDeadlineMidFlight(t *testing.T) {
	db := newTestDB(t)
	base := runtime.NumGoroutine()
	// Both nodes straggle for 400ms with no speculation: the query can
	// only finish by blowing its 30ms deadline inside the injected delay.
	db.MustConfigure(WithFaults(&cluster.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 400 * time.Millisecond,
	}))
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := db.ExecuteContext(ctx, chaosQueries[0].sql)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("deadline did not abort the injected delay: elapsed %v", elapsed)
	}
	awaitGoroutines(t, base)
}

func TestQueryCancelMidFlight(t *testing.T) {
	db := newTestDB(t)
	base := runtime.NumGoroutine()
	db.MustConfigure(WithFaults(&cluster.FaultConfig{
		Seed:           1,
		StragglerNodes: []int{0, 1},
		StragglerDelay: 400 * time.Millisecond,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.ExecuteContext(ctx, chaosQueries[0].sql)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("cancellation did not abort the injected delay: elapsed %v", elapsed)
	}
	awaitGoroutines(t, base)
}

// panicKey is the one key panic_summarize and panic_assign blow up on.
const panicKey = 37

// panicLibrary builds joins that blow up in a chosen phase, to prove
// the engine converts UDF panics into structured errors instead of
// crashing the process.
func panicLibrary() *core.Library {
	base := func(name string) core.Spec[int64, int64, int64, int64] {
		return core.Spec[int64, int64, int64, int64]{
			Name:       name,
			NewSummary: func() int64 { return 0 },
			LocalAggLeft: func(key int64, s int64) int64 {
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
			Divide:     func(left, right int64, params []any) (int64, error) { return left + right, nil },
			AssignLeft: func(key int64, plan int64, dst []core.BucketID) []core.BucketID { return append(dst, 0) },
			Verify:     func(b1 core.BucketID, l int64, b2 core.BucketID, r int64, plan int64) bool { return l == r },
		}
	}
	lib := core.NewLibrary("paniclib")
	s := base("panic_verify")
	s.Verify = func(core.BucketID, int64, core.BucketID, int64, int64) bool { panic("verify boom") }
	lib.MustRegister("test.PanicVerify", func() core.Join { return core.Wrap(s) })
	a := base("panic_assign")
	a.AssignLeft = func(key int64, _ int64, dst []core.BucketID) []core.BucketID {
		if key == panicKey {
			panic("assign boom")
		}
		return append(dst, 0)
	}
	lib.MustRegister("test.PanicAssign", func() core.Join { return core.Wrap(a) })
	d := base("panic_divide")
	d.Divide = func(int64, int64, []any) (int64, error) { panic("divide boom") }
	lib.MustRegister("test.PanicDivide", func() core.Join { return core.Wrap(d) })
	g := base("panic_summarize")
	g.LocalAggLeft = func(key int64, s int64) int64 {
		if key == panicKey {
			panic("summarize boom")
		}
		return s
	}
	lib.MustRegister("test.PanicSummarize", func() core.Join { return core.Wrap(g) })
	// A theta join under duplicate avoidance whose MATCH panics once
	// VERIFY has accepted a pair: the coordinator's bucket-pair
	// enumeration under smart theta passes, and the panic comes from the
	// MATCH that avoidance runs inside COMBINE.
	m := base("panic_dedup_match")
	m.Dedup = core.DedupAvoidance
	lib.MustRegister("test.PanicDedupMatch", func() core.Join {
		var accepted atomic.Bool // a query constructs its own instance
		s := m
		s.Verify = func(_ core.BucketID, l int64, _ core.BucketID, r int64, _ int64) bool {
			if l == r {
				accepted.Store(true)
			}
			return l == r
		}
		s.Match = func(b1, b2 core.BucketID) bool {
			if accepted.Load() {
				panic("match boom")
			}
			return b1 == b2
		}
		return core.Wrap(s)
	})
	return lib
}

func TestUDFPanicIsolation(t *testing.T) {
	db := newTestDB(t, WithSmartTheta(true)) // only panic_dedup_match is a theta join
	if err := db.InstallLibrary(panicLibrary()); err != nil {
		t.Fatal(err)
	}
	ddl := []string{
		`CREATE JOIN panic_verify(a: int, b: int) RETURNS boolean AS "test.PanicVerify" AT paniclib`,
		`CREATE JOIN panic_assign(a: int, b: int) RETURNS boolean AS "test.PanicAssign" AT paniclib`,
		`CREATE JOIN panic_divide(a: int, b: int) RETURNS boolean AS "test.PanicDivide" AT paniclib`,
		`CREATE JOIN panic_summarize(a: int, b: int) RETURNS boolean AS "test.PanicSummarize" AT paniclib`,
		`CREATE JOIN panic_dedup_match(a: int, b: int) RETURNS boolean AS "test.PanicDedupMatch" AT paniclib`,
	}
	for _, stmt := range ddl {
		if _, err := db.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	cases := []struct {
		join    string
		phase   string
		text    string
		atCoord bool // panic happens at the coordinator (partition -1)
		exact   bool // panic is attributed to the record holding panicKey
	}{
		{"panic_summarize", "summarize", "summarize boom", false, true},
		{"panic_divide", "divide", "divide boom", true, false},
		{"panic_assign", "assign", "assign boom", false, true},
		{"panic_verify", "combine", "verify boom", false, false},
		{"panic_dedup_match", "combine", "match boom", false, false},
	}
	// Rides are scattered round-robin over the 2×2 cluster's four
	// partitions, so ride id panicKey is record panicKey/4 of partition
	// panicKey%4.
	for _, tc := range cases {
		sql := `SELECT n1.id FROM rides n1, rides n2 WHERE ` + tc.join + `(n1.id, n2.id)`
		_, err := db.Execute(sql)
		if err == nil {
			t.Fatalf("%s: query succeeded through a panicking UDF", tc.join)
		}
		var ue *core.UDFError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error is not a *core.UDFError: %v", tc.join, err)
		}
		if ue.Phase != tc.phase {
			t.Errorf("%s: phase = %q, want %q", tc.join, ue.Phase, tc.phase)
		}
		if ue.Join != tc.join {
			t.Errorf("%s: join name = %q", tc.join, ue.Join)
		}
		if tc.atCoord && ue.Partition != -1 {
			t.Errorf("%s: partition = %d, want -1 (coordinator)", tc.join, ue.Partition)
		}
		if !tc.atCoord && ue.Partition < 0 {
			t.Errorf("%s: partition = %d, want a task partition", tc.join, ue.Partition)
		}
		if tc.exact && (ue.Partition != panicKey%4 || ue.Record != panicKey/4) {
			t.Errorf("%s: partition %d record %d, want partition %d record %d (ride %d)",
				tc.join, ue.Partition, ue.Record, panicKey%4, panicKey/4, panicKey)
		}
		if !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: message %q should contain %q", tc.join, err.Error(), tc.text)
		}
		if ue.Stack == "" {
			t.Errorf("%s: no stack captured", tc.join)
		}
	}
}

// TestPreparePanicAttribution makes a join's Prepare panic on the nth
// preparation of ride panicKey. In this self-join the key is prepared
// at left SUMMARIZE (both sides' assign tasks take those keys, as the
// self-join skips the right SUMMARIZE), then once per side at COMBINE,
// so each n names a phase, and a fourth preparation never comes: no
// phase prepares a key it was handed prepared.
func TestPreparePanicAttribution(t *testing.T) {
	db := newTestDB(t)
	lib := core.NewLibrary("preparelib")
	for _, n := range []int64{1, 2, 3, 4} {
		lib.MustRegister(fmt.Sprintf("test.PanicPrepare%d", n), func() core.Join {
			var calls atomic.Int64 // a query constructs its own instance
			return core.Wrap(core.Spec[int64, int64, int64, int64]{
				Name: "panic_prepare",
				Prepare: func(raw any) int64 {
					if raw.(int64) == panicKey && calls.Add(1) == n {
						panic("prepare boom")
					}
					return raw.(int64)
				},
				NewSummary:   func() int64 { return 0 },
				LocalAggLeft: func(key, s int64) int64 { return s },
				GlobalAgg:    func(a, b int64) int64 { return a },
				Divide:       func(l, r int64, _ []any) (int64, error) { return 0, nil },
				AssignLeft:   func(_, _ int64, dst []core.BucketID) []core.BucketID { return append(dst, 0) },
				Verify:       func(_ core.BucketID, l int64, _ core.BucketID, r int64, _ int64) bool { return l == r },
			})
		})
	}
	if err := db.InstallLibrary(lib); err != nil {
		t.Fatal(err)
	}
	// Every ride lands in bucket 0, and COMBINE joins it on the
	// partition the bucket id hashes to.
	combinePart := int(types.NewInt64(0).Hash() % 4)
	cases := []struct {
		phase     string
		partition int
		record    int
	}{
		{"summarize", panicKey % 4, panicKey / 4},
		{"combine", combinePart, -1},
		{"combine", combinePart, -1},
		{"", 0, 0}, // no fourth preparation, so no panic
	}
	for i, tc := range cases {
		name := fmt.Sprintf("panic_prepare%d", i+1)
		mustQuery(t, db, fmt.Sprintf(`CREATE JOIN %s(a: int, b: int) RETURNS boolean AS "test.PanicPrepare%d" AT preparelib`, name, i+1))
		_, err := db.Execute(`SELECT n1.id FROM rides n1, rides n2 WHERE ` + name + `(n1.id, n2.id)`)
		if tc.phase == "" {
			if err != nil {
				t.Errorf("%s: key prepared a fourth time: %v", name, err)
			}
			continue
		}
		var ue *core.UDFError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error is not a *core.UDFError: %v", name, err)
		}
		if ue.Phase != tc.phase || ue.Partition != tc.partition || ue.Record != tc.record {
			t.Errorf("%s: phase %q partition %d record %d, want %q %d %d",
				name, ue.Phase, ue.Partition, ue.Record, tc.phase, tc.partition, tc.record)
		}
		if !strings.Contains(err.Error(), "prepare boom") {
			t.Errorf("%s: message %q should carry the panic value", name, err.Error())
		}
	}
}

// TestUDFPanicNotRetried pins that deterministic UDF panics fail fast
// instead of burning the retry budget.
func TestUDFPanicNotRetried(t *testing.T) {
	db := newTestDB(t)
	if err := db.InstallLibrary(panicLibrary()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Execute(`CREATE JOIN panic_assign2(a: int, b: int) RETURNS boolean AS "test.PanicAssign" AT paniclib`); err != nil {
		t.Fatal(err)
	}
	db.MustConfigure(WithRetryPolicy(cluster.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}))
	_, err := db.Execute(`SELECT n1.id FROM rides n1, rides n2 WHERE panic_assign2(n1.id, n2.id)`)
	if err == nil {
		t.Fatal("query should fail")
	}
	if strings.Contains(err.Error(), "gave up after") {
		t.Errorf("UDF panic was retried: %v", err)
	}
}
