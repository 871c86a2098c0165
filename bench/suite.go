package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// resultFile is what a suite saves and -compare reads: for every
// workload and metric, the value of each run in order.
type resultFile struct {
	Seed      int64                           `json:"seed"`
	Runs      int                             `json:"runs"`
	Seconds   float64                         `json:"seconds"`
	Traced    bool                            `json:"traced"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// runSuite runs each workload runs times, on seeds seed, seed+1, …, prints
// every metric of every run by name, then the medians and spreads, and
// saves the values. It fails if any run failed its output checks.
func runSuite(ctx context.Context, selected []workload, seed int64, seconds float64, traced bool, runs int, plan runPlan, bf *benchmarkFile, out string) error {
	rf := resultFile{Seed: seed, Runs: runs, Seconds: seconds, Traced: traced, Workloads: make(map[string]map[string][]float64)}
	incorrect := 0
	for _, w := range selected {
		values := make(map[string][]float64)
		rf.Workloads[w.name] = values
		for i := 0; i < runs; i++ {
			res, err := runOne(ctx, w, seed+int64(i), seconds, traced, plan, bf)
			if err != nil {
				return err
			}
			res.printTable(os.Stdout, fmt.Sprintf("%s seed %d", w.name, seed+int64(i)), wanted(traced))
			if !res.correct() {
				incorrect++
			}
			for name, m := range res.metrics {
				values[name] = append(values[name], m.Value)
			}
		}
	}
	if runs > 1 {
		bounds := make(map[string]float64)
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
		fmt.Printf("== medians over %d runs (spread = interquartile range / median)\n", runs)
		for _, w := range selected {
			for _, d := range wanted(traced) {
				xs := rf.Workloads[w.name][d.name]
				note := ""
				if b, ok := bounds[d.name]; ok && d.name != "setup_s" && spread(xs) > b/3 {
					note = fmt.Sprintf("  spread above a third of the bound %.2f", b)
				}
				fmt.Printf("  %-20s %-30s %14.4f %-6s spread %.4f%s\n", w.name, d.name, median(xs), d.unit, spread(xs), note)
			}
		}
	}
	if out == "" {
		out = filepath.Join(plan.outDir, "results.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(&rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("values saved to %s\n", out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed their output checks", incorrect)
	}
	return nil
}

// judge compares two sets of runs of one metric against its bound.
func judge(a, b []float64, higher bool, bound float64) (worse, sp float64, status string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if higher {
		worse = -worse
	}
	sp = max(spread(a), spread(b))
	switch {
	case sp > bound:
		status = "unresolved"
	case worse > bound:
		status = "regressed"
	default:
		status = "ok"
	}
	return worse, sp, status
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse the second file is, and ok / regressed / unresolved
// against the bounds of BENCHMARK.json. It fails unless every line is ok.
func compareFiles(pathA, pathB string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	load := func(path string) (*resultFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	notOK := 0
	fmt.Printf("%-20s %-14s %12s %12s %9s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread", "bound", "status")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := a.Workloads[w.Name][m.Name], b.Workloads[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-20s %-14s missing from one of the files\n", w.Name, m.Name)
				notOK++
				continue
			}
			worse, sp, status := judge(xa, xb, m.Better == "higher", m.Bound)
			if status != "ok" {
				notOK++
			}
			fmt.Printf("%-20s %-14s %12.4f %12.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*worse, 100*sp, 100*m.Bound, status)
		}
	}
	if notOK > 0 {
		return fmt.Errorf("%d metric(s) not ok", notOK)
	}
	return nil
}
