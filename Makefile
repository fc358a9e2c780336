# Build, verify, and chaos-test the FUDJ reproduction.

GO ?= go

# Pinned external linter versions (installed in CI; local runs skip
# them gracefully when the tools are absent).
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

FUDJVET = bin/fudjvet

.PHONY: all vet fudjvet build test race chaos chaos-recovery stress serve-chaos serve-ha bench-e2e bench-serve-ha fuzz staticcheck govulncheck lint-fix-check loc loc-check ci

all: build

# vet runs the standard analyzers, then fudjvet, the repo's own
# invariant suite (seeded determinism, error wrapping, uncontended hot
# loops). Any fudjvet finding fails it; there is no suppression. UDF
# panic isolation and bounded decoding are tests' jobs:
# TestUDFPanicMatrix under make chaos, and the targets of make fuzz.
vet: fudjvet
	$(GO) vet ./...
	$(FUDJVET) ./...

fudjvet:
	$(GO) build -o $(FUDJVET) ./cmd/fudjvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the degraded-execution suite under the race detector:
# deterministic fault injection (crashes, a straggler node, shuffle
# corruption), cancellation/deadline handling, UDF panic isolation,
# and memory-bounded execution (spill, backpressure, skew splits).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Straggler|Corrupt|Deadline|Cancel|UDFPanic|StandalonePanic|PanicAttribution|Bounded|Memory|Spill|ResourceError|BucketSplit|Backpressure' \
		./internal/cluster/ ./internal/core/ ./internal/engine/ ./internal/storage/ .

# chaos-recovery runs the checkpointed-execution matrix under the race
# detector: kill-at-barrier over both barriers and every example join,
# torn-write and checkpoint-corruption healing, checkpoint reopen
# crash-consistency, and the temp-file sweep — every run asserting
# multiset-identical results against a fault-free baseline.
chaos-recovery:
	$(GO) test -race -run 'CheckpointRecovery|KillAtBarrier|TornWrite|CheckpointCorrupt|Recovery|BarrierMatrix|Checkpoint' \
		./internal/cluster/ ./internal/storage/ ./internal/engine/ .

# stress runs the admission-controlled scheduler suite under the race
# detector: the seeded open-loop storm (hundreds of mixed joins against
# a small shared memory pool, with a panicking-UDF arm and a fault-
# injection arm), the scheduler unit invariants, lease accounting,
# timeout classification, drain semantics, and the concurrent-Execute
# safety audit.
stress:
	$(GO) test -race -run 'Stress|Sched|Admission|Lease|Drain|Timeout|Priority|ConcurrentExecute|SmartThetaConcurrent|SmartThetaBarrierLoss' \
		./internal/sched/ ./internal/engine/ ./internal/bench/

# serve-chaos runs the network serving suite under the race detector:
# the frame protocol (CRC corruption, truncation, oversize), the error
# envelope taxonomy round-trip, session replay/expiry, the full
# client/server integration tests through the one-server case of the
# failover client, the seeded network chaos
# convergence run (accept refusal, mid-response resets, byte
# corruption, stalls), daemon drain under open-loop load, the
# drain-vs-recovery race, and the through-the-wire stress storm. The
# frame itself lives in internal/wire and is shared with the spill and
# checkpoint files of internal/storage, so the pattern's 'Frame' races
# the one framer where it is defined and on every surface that uses it.
serve-chaos:
	$(GO) test -race -run 'Serve|Frame|Session|Envelope|Taxonomy|Shed|RemoteError|DrainRaces|DrainCancels|StressOverNetwork' \
		./internal/wire/ ./internal/storage/ \
		./internal/serve/ ./internal/serve/client/ ./internal/engine/ ./internal/bench/

# serve-ha runs the multi-instance failover suite under the race
# detector: the rolling-restart chaos storm (three restartable fudjd
# instances behind one failover client, each drained and restarted in
# turn under the seeded fault-injecting listener, then a full-cluster
# hard restart — zero client-visible failures, multiset-identical
# results, exec-at-most-once per instance, breaker open/close, empty
# TMPDIR), the deterministic drain-failover, instance-mismatch re-key
# and single-server restart tests, the health/readiness probes, and
# the endpoint-selection/breaker/drain/backoff/journal unit suites.
serve-ha:
	$(GO) test -race -run 'ServeHA|Selection|Breaker|Drain|Backoff|Ready|Instance|Journal|Replay|Expiry' \
		./internal/serve/ ./internal/serve/client/

# bench-e2e checks the fudj-e2e benchmark (the nested module benchmark/,
# which tier-1 never compiles) and takes a short reading with it: vet
# and race tests inside the module, then a same-seed run whose exit
# status is fatal (oracle mismatch, query error, or a file left in
# TMPDIR), then a comparison against the committed baseline that is
# printed but not fatal — the baseline's timings are another machine's.
bench-e2e:
	cd benchmark && $(GO) vet ./... && $(GO) test -race ./...
	$(GO) run -C benchmark . -seed 42 -rounds 2 -round-secs 1
	-$(GO) run -C benchmark . -compare baseline.json out/results.json

# bench-serve-ha runs the client-side failover experiment — steady
# closed-loop latency vs the first query after the serving instance
# drains — and records results/BENCH_serve_ha.json. The experiment
# fails if every query did not succeed, or if no drain failover /
# re-key was recorded (i.e. the failover arm measured a healthy pair).
bench-serve-ha:
	$(GO) run ./cmd/benchrunner -exp serve-ha -json results/BENCH_serve_ha.json

# fuzz smoke-runs every native fuzz target briefly. It asks go test for
# each package's Fuzz functions, so a new target runs here with no edit;
# DESIGN.md §9 requires one for every decoder of bytes the process did not
# write. The committed corpora under testdata/fuzz/ also run as
# regression seeds in plain `go test`, so CI covers them even without
# this target.
FUZZTIME ?= 10s
fuzz:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1 } \
		/^ok/ { for (i = 0; i < n; i++) print $$2 "=" t[i]; n = 0 } /^FAIL/ { bad = 1 } END { exit bad }') || exit 1; \
	for pt in $$targets; do \
		echo "$(GO) test -run xxx -fuzz '^$${pt#*=}$$' -fuzztime $(FUZZTIME) $${pt%%=*}"; \
		$(GO) test -run xxx -fuzz "^$${pt#*=}\$$" -fuzztime $(FUZZTIME) "$${pt%%=*}" || exit 1; \
	done

# staticcheck and govulncheck are external tools pinned by version in
# CI; locally they run only if already installed (the build environment
# deliberately carries no third-party modules).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI pins $(GOVULNCHECK_VERSION))"; \
	fi

# lint-fix-check fails if the tree needs gofmt, or if the fudjvet suite
# reports any finding — the no-drift gate CI runs on a clean checkout.
lint-fix-check: fudjvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(FUDJVET) ./...

# loc prints the size figure ROADMAP.md quotes — the root module's
# non-test Go lines, comments and blanks included, benchmark/ excluded —
# and the six largest packages by the same count.
LOC_FILES = find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*'
LOC_COUNT = $(LOC_FILES) | xargs cat | wc -l
loc:
	@echo "non-test Go lines: $$($(LOC_COUNT))"
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } \
		END { for (d in n) print n[d], d }' | sort -rn | head -6

# loc-check is the size ratchet: loc's count may not exceed the number
# in testdata/loc_budget.txt, and a PR that shrinks the tree commits its
# own count there. The budget only goes down.
loc-check:
	@n=$$($(LOC_COUNT)); budget=$$(grep -v '^#' testdata/loc_budget.txt); \
	if [ "$$n" -gt "$$budget" ]; then \
		echo "non-test Go lines: $$n exceeds the budget $$budget (testdata/loc_budget.txt)"; exit 1; \
	fi; \
	echo "non-test Go lines: $$n (budget $$budget)"

ci: vet loc-check build race chaos chaos-recovery staticcheck govulncheck
