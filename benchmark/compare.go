package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(m metric, a, b float64) float64 {
	if m.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// wallClocked reports whether the machine's speed moves the metric.
// Allocation counts repeat exactly for a seed, so round-to-round noise
// says nothing about them.
func wallClocked(m metric) bool {
	switch m.Name {
	case "query_p50_ms", "queries_per_s", "cpu_ms_per_query":
		return true
	}
	return false
}

// verdict judges one end-to-end metric of one workload: regressed when
// b is worse than a by more than the bound; for a timing, unresolved
// when either run's own round-to-round noise (driver.round_p50_spread)
// is wider than the bound, so that the comparison could not have shown
// a change of that size.
func verdict(m metric, a, b, noiseA, noiseB float64) string {
	switch {
	case wallClocked(m) && max(noiseA, noiseB) > m.Bound:
		return "unresolved"
	case worsening(m, a, b) > m.Bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the change, the bound and a verdict, then checks that the
// exact-repeat counts are equal when both runs used one seed. It
// returns an error when anything regressed or an exact count differs.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a.Workloads {
		if b.Workloads[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		for _, m := range endToEndMetrics {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(m, va, vb, ra.PerLayer["driver.round_p50_spread"], rb.PerLayer["driver.round_p50_spread"])
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-18s %-20s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				name, m.Name, va, vb, 100*ratio(vb-va, va), 100*m.Bound, v)
		}
		if ra.Failed+rb.Failed > 0 {
			bad++
			fmt.Fprintf(w, "%-18s failed statements: a=%d b=%d  regressed\n", name, ra.Failed, rb.Failed)
		}
		if a.Seed != b.Seed || ra.PerLayer == nil || rb.PerLayer == nil {
			continue
		}
		exact := exactRepeat
		if ra.PerLayer["engine.mem_peak_bytes"] == 0 {
			// Without a memory budget no transfer is chunked, so the
			// shuffled byte count repeats too.
			exact = append(exact[:len(exact):len(exact)], "cluster.shuffle_bytes")
		}
		for _, k := range exact {
			if ra.PerLayer[k] != rb.PerLayer[k] {
				bad++
				fmt.Fprintf(w, "%-18s %-20s %12.6g %12.6g  exact count differs\n", name, k, ra.PerLayer[k], rb.PerLayer[k])
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons regressed or differ", bad)
	}
	return nil
}
