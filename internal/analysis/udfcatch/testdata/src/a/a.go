// Fixture for the udfcatch analyzer: every call into user-defined join
// code must be dominated by a deferred panic guard, checked
// interprocedurally. This package is NOT under internal/, so exported
// functions that need a guard are reported at their declaration
// (module-external callers are invisible to the call graph).
package a

// Join models the core.Join interface surface (matched by interface
// dispatch on UDF method names).
type Join interface {
	Assign(side int, key any) []int
	Match(b1, b2 int) bool
	Verify(b1 int, k1 any, b2 int, k2 any) bool
}

// Spec models the typed translation layer's user-function fields.
type Spec struct {
	Name  string
	Match func(a, b int) bool
}

// CatchPanic stands in for core.CatchPanic (matched by name).
func CatchPanic(name string, err *error) {}

// Cluster models the partition-driver surface (matched by method name
// on a type named Cluster).
type Cluster struct{}

func (c *Cluster) Run(name string, fn func(part int) error) error { return fn(0) }

// FlaggedExported calls user code unguarded and is exported from a
// non-internal package: callers outside the module can reach it, so the
// missing guard is reported at the declaration.
func FlaggedExported(j Join) bool { // want `FlaggedExported calls user-defined join code with no deferred core.CatchPanic`
	return j.Verify(1, nil, 2, nil)
}

// unguardedHelper needs a guard but is unexported: every caller is in
// this module, so it becomes a silent NeedsGuard fact, not a finding —
// the obligation is checked at its callers instead.
func unguardedHelper(j Join) bool {
	return j.Match(1, 2)
}

// fieldHelper exercises the Spec function-field form of a UDF call.
func fieldHelper(s *Spec) bool {
	return s.Match(1, 2)
}

// okCallerGuarded discharges the helpers' obligation with its own
// deferred guard: the guard covers the synchronous callees.
func okCallerGuarded(j Join, s *Spec) (res bool, err error) {
	defer CatchPanic("q", &err)
	res = unguardedHelper(j) && fieldHelper(s)
	return res, err
}

// FlaggedCallerUnguarded propagates the helper's obligation: it calls
// unguardedHelper with no guard and is itself exported.
func FlaggedCallerUnguarded(j Join) bool { // want `FlaggedCallerUnguarded calls user-defined join code with no deferred core.CatchPanic`
	return unguardedHelper(j)
}

// FlaggedGuardAfter installs the guard after the risky call; deferred
// guards only cover what follows them.
func FlaggedGuardAfter(j Join) (err error) { // want `FlaggedGuardAfter calls user-defined join code with no deferred core.CatchPanic`
	_ = j.Match(1, 2)
	defer CatchPanic("q", &err)
	return nil
}

// flaggedDriverClosure hands the cluster a partition closure that calls
// user code with no internal guard: the caller's guard runs on another
// goroutine and cannot catch the panic.
func flaggedDriverClosure(clus *Cluster, j Join) (err error) {
	defer CatchPanic("q", &err)
	return clus.Run("q", func(part int) error {
		j.Match(1, 2) // want `call to user-defined Match runs inside a partition task`
		return nil
	})
}

// okDriverClosure guards inside the partition task.
func okDriverClosure(clus *Cluster, j Join) error {
	return clus.Run("q", func(part int) (err error) {
		defer CatchPanic("q", &err)
		j.Match(1, 2)
		return nil
	})
}

// flaggedGoUDF launches user code on a bare goroutine with no guard.
func flaggedGoUDF(j Join) {
	go func() {
		j.Verify(1, nil, 2, nil) // want `call to user-defined Verify runs inside a goroutine`
	}()
}

// flaggedGoWorker is the smart-theta MATCH worker shape: the
// goroutine's only defer is not a panic guard.
func flaggedGoWorker(j Join, done func()) {
	go func() {
		defer done()
		j.Match(1, 2) // want `call to user-defined Match runs inside a goroutine`
	}()
}

// flaggedGoHelper launches a NeedsGuard function value on a goroutine:
// reported at the hand-off, because no caller guard can reach it.
func flaggedGoHelper(j Join) {
	fn := func() { j.Match(1, 2) }
	go fn() // want `fn calls user-defined join code without an internal panic guard and is launched with go`
}

// flaggedDriverHelper hands a NeedsGuard closure to a partition driver.
func flaggedDriverHelper(clus *Cluster, j Join) error {
	risky := func(part int) error {
		j.Match(1, 2)
		return nil
	}
	return clus.Run("q", risky) // want `risky calls user-defined join code without an internal panic guard and is handed to a partition driver`
}

// mergeAll is the coordinator's summary-merge shape: a UDF call in an
// unguarded, immediately invoked closure gives it a NeedsGuard fact.
func mergeAll(j Join) bool {
	return func() bool { return j.Match(1, 2) }()
}

// flaggedGoMerge calls mergeAll where no caller's guard can reach.
func flaggedGoMerge(j Join) {
	go func() { _ = mergeAll(j) }() // want `call to user-defined mergeAll runs inside a goroutine`
}

// okGoGuarded launches a goroutine whose body guards itself.
func okGoGuarded(j Join) {
	go func() {
		defer func() {
			_ = recover()
		}()
		j.Match(1, 2)
	}()
}

// GuardedApply proves its function parameter runs only under a guard:
// callers may pass unguarded UDF-calling closures at that position. It
// is exported so package b can exercise the fact across the boundary.
func GuardedApply(fn func() bool) (res bool, err error) {
	defer CatchPanic("q", &err)
	res = fn()
	return res, err
}

// okGuardedParamPass passes a UDF-calling closure to GuardedApply with
// no local guard — safe, because GuardedApply's parameter fact proves
// the guard is installed before invocation.
func okGuardedParamPass(j Join) bool {
	res, _ := GuardedApply(func() bool { return j.Match(1, 2) })
	return res
}

// J is a package-level join used by RiskyPartition.
var J Join

// RiskyPartition calls user code unguarded and is exported: flagged at
// the declaration here, and its NeedsGuard fact also travels to the
// packages that import this one (see fixture b).
func RiskyPartition(part int) error { // want `RiskyPartition calls user-defined join code with no deferred core.CatchPanic`
	J.Match(part, part)
	return nil
}

// rawApply invokes its parameter with no guard, so passing a
// UDF-calling closure to it propagates the obligation to the caller.
func rawApply(fn func() bool) bool { return fn() }

// FlaggedRawParamPass passes user code through rawApply unguarded and
// is exported: reported at the declaration.
func FlaggedRawParamPass(j Join) bool { // want `FlaggedRawParamPass calls user-defined join code with no deferred core.CatchPanic`
	return rawApply(func() bool { return j.Match(1, 2) })
}

// okRawParamPassGuarded makes the same pass under a local guard.
func okRawParamPassGuarded(j Join) (res bool, err error) {
	defer CatchPanic("q", &err)
	res = rawApply(func() bool { return j.Match(1, 2) })
	return res, err
}

// okNestedClosure: the guard sits in an enclosing closure; the UDF call
// is inside a deeper one. Lexical domination still holds.
func okNestedClosure(j Join) error {
	run := func() (err error) {
		defer CatchPanic("q", &err)
		inner := func() bool { return j.Match(1, 2) }
		_ = inner()
		return nil
	}
	return run()
}

// matcher has a concrete method that happens to be named Match; only
// interface dispatch is a UDF boundary.
type matcher struct{}

func (matcher) Match(a, b int) bool { return a == b }

func okConcrete(m matcher) bool {
	return m.Match(1, 2)
}

// wrapped.Verify is itself a UDF entry point forwarding to the inner
// join — the translation-layer exemption: the guard obligation attaches
// to its callers.
type wrapped struct{ j Join }

func (w wrapped) Verify(b1 int, k1 any, b2 int, k2 any) bool {
	return w.j.Verify(b1, k1, b2, k2)
}
