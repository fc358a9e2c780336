package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fudj/internal/serve"
)

// config is one benchmark run. Warm-up is min(2 s, roundSecs) per
// workload and is discarded.
type config struct {
	seed      int64
	scale     float64 // dataset size multiplier; 1 except in tests
	rounds    int
	roundSecs float64
	setupSecs float64 // set-up is repeated for this long; setup_s is the median
	layers    bool    // traced phase + layer replays (the per-layer metrics)
	outDir    string
	tmpDir    string // the TMPDIR spill and checkpoint files go to
}

// round is what one measured round of one workload observed.
type round struct {
	lat       [][]float64 // per statement, client-side wall ms
	queueWait []float64   // ms, from Result.Sched
	wall, cpu time.Duration
	failed    int
	bytes     uint64 // TotalAlloc delta
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
}

func (r *round) pooled() []float64 {
	var all []float64
	for _, l := range r.lat {
		all = append(all, l...)
	}
	return all
}

// workloadRun accumulates everything measured for one workload.
type workloadRun struct {
	in       *instance
	setupS   float64
	oracleS  float64
	rounds   []round
	srvBase  serve.Counters // the server's counters when measurement began
	failures []string       // first few failure messages, for the report
}

func (wr *workloadRun) attempted() (n, failed int) {
	for i := range wr.rounds {
		n += len(wr.rounds[i].pooled()) + wr.rounds[i].failed
		failed += wr.rounds[i].failed
	}
	return n, failed
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// leftovers lists what is in the benchmark's TMPDIR: after a query has
// returned, any spill run or checkpoint still there is a leak.
func leftovers(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return []string{err.Error()}
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// runRound drives the workload's closed-loop clients for about d: each
// client issues its next statement only when the previous one has
// returned, and finishes the statement cycle it is in, so every round
// has the same statement mix.
func (wr *workloadRun) runRound(cfg config, d time.Duration) round {
	in := wr.in
	type clientLog struct {
		lat      [][]float64
		wait     []float64
		failures []string
	}
	logs := make([]clientLog, len(in.execs))

	// Start every round from the same heap state: an allocation-heavy
	// round grows the GC target and would make the next one look cheap.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c, exec := range in.execs {
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			log.lat = make([][]float64, len(in.w.stmts))
			for time.Now().Before(deadline) {
				for si, st := range in.w.stmts {
					start := time.Now()
					res, err := exec(st.sql)
					lat := time.Since(start)
					if err == nil {
						err = in.check(si, res)
					}
					if err == nil && in.w.bounded {
						if left := leftovers(cfg.tmpDir); len(left) > 0 {
							err = fmt.Errorf("%s: files left in TMPDIR after the query: %v", in.w.name, left)
						}
					}
					if err != nil {
						log.failures = append(log.failures, err.Error())
						continue
					}
					log.lat[si] = append(log.lat[si], ms(lat))
					log.wait = append(log.wait, ms(res.Sched.QueueWait))
				}
			}
		}(&logs[c])
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)

	r := round{
		lat:  make([][]float64, len(in.w.stmts)),
		wall: wall, cpu: cpu,
		bytes: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	for _, log := range logs {
		for si := range log.lat {
			r.lat[si] = append(r.lat[si], log.lat[si]...)
		}
		r.queueWait = append(r.queueWait, log.wait...)
		r.failed += len(log.failures)
		for _, f := range log.failures {
			if len(wr.failures) < 5 {
				wr.failures = append(wr.failures, f)
			}
		}
	}
	if left := leftovers(cfg.tmpDir); len(left) > 0 {
		r.failed++
		wr.failures = append(wr.failures, fmt.Sprintf("%s: files left in TMPDIR after the round: %v", in.w.name, left))
	}
	return r
}

// perRound maps each round to one value and returns the median.
func (wr *workloadRun) perRound(f func(r *round, queries float64) float64) (med float64, all []float64) {
	for i := range wr.rounds {
		r := &wr.rounds[i]
		all = append(all, f(r, float64(len(r.pooled()))))
	}
	return median(all), all
}

// endToEnd derives the end-to-end metrics from the measured rounds.
func (wr *workloadRun) endToEnd() map[string]float64 {
	p50, _ := wr.perRound(func(r *round, _ float64) float64 { return median(r.pooled()) })
	qps, _ := wr.perRound(func(r *round, q float64) float64 { return q / r.wall.Seconds() })
	cpu, _ := wr.perRound(func(r *round, q float64) float64 { return ratio(ms(r.cpu), q+float64(r.failed)) })
	mb, _ := wr.perRound(func(r *round, q float64) float64 { return ratio(float64(r.bytes)/1e6, q+float64(r.failed)) })
	allocs, _ := wr.perRound(func(r *round, q float64) float64 { return ratio(float64(r.mallocs), q+float64(r.failed)) })
	return map[string]float64{
		"query_p50_ms":       p50,
		"queries_per_s":      qps,
		"cpu_ms_per_query":   cpu,
		"alloc_mb_per_query": mb,
		"allocs_per_query":   allocs,
		"setup_s":            wr.setupS,
	}
}

// prepare sets the workload up repeatedly for setupSecs (keeping the
// last instance), computes the oracle, and runs the discarded warm-up.
// One set-up takes 0.4 to 20 ms, so a single timing would be noise.
func prepare(w workload, cfg config) (*workloadRun, error) {
	wr := &workloadRun{}
	var times []float64
	for begin := time.Now(); wr.in == nil || time.Since(begin).Seconds() < cfg.setupSecs; {
		if wr.in != nil {
			wr.in.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := setup(w, cfg.seed, cfg.scale)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		wr.in = in
	}
	wr.setupS = median(times)

	t0 := time.Now()
	if err := wr.in.oracle(); err != nil {
		wr.in.close()
		return nil, err
	}
	wr.oracleS = time.Since(t0).Seconds()

	warm := time.Duration(min(2, cfg.roundSecs) * float64(time.Second))
	if r := wr.runRound(cfg, warm); r.failed > 0 {
		wr.in.close()
		return nil, fmt.Errorf("%s: warm-up: %v", w.name, wr.failures)
	}
	if wr.in.srv != nil {
		wr.srvBase = wr.in.srv.Counters()
	}
	return wr, nil
}

// runAll measures the given workloads: rounds are interleaved
// round-robin across workloads (A B C A B C ...), so drift in the
// machine's speed lands on all of them alike.
func runAll(ws []workload, cfg config) (map[string]*report, error) {
	runs := make([]*workloadRun, 0, len(ws))
	defer func() {
		for _, wr := range runs {
			wr.in.close()
		}
	}()
	for _, w := range ws {
		wr, err := prepare(w, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, wr)
	}
	d := time.Duration(cfg.roundSecs * float64(time.Second))
	for r := 0; r < cfg.rounds; r++ {
		for _, wr := range runs {
			wr.rounds = append(wr.rounds, wr.runRound(cfg, d))
		}
	}
	out := make(map[string]*report, len(runs))
	for _, wr := range runs {
		rep := &report{EndToEnd: wr.endToEnd(), Failures: wr.failures}
		rep.Attempted, rep.Failed = wr.attempted()
		if cfg.layers {
			var err error
			if rep.PerLayer, err = wr.perLayer(cfg, rep.EndToEnd); err != nil {
				return nil, fmt.Errorf("%s: %w", wr.in.w.name, err)
			}
		}
		out[wr.in.w.name] = rep
	}
	return out, nil
}

// report is one workload's part of results.json.
type report struct {
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
}
