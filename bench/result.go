package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric of BENCHMARK.json. The table below is the
// single source of names and units; BENCHMARK.json repeats them (and adds
// the bounds), and a test keeps the two in step.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one: "op" is one Cleaner.Clean on the batch workloads and one
// POST /sessions/{id}/deltas on the serve workloads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_tail_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s", higher: true},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "peak_rss_mb", unit: "MiB"},
	{name: "f1", unit: "ratio", higher: true},
	{name: "recover_s", unit: "s"},
}

// perLayer lists the traced run's metrics, one group per module.
var perLayer = []metricDef{
	{name: "dataset.read_csv_ms", unit: "ms"},
	{name: "violation.detect_ms", unit: "ms"},
	{name: "violation.violations", unit: "count"},
	{name: "errordetect.noisy_cells", unit: "count"},
	{name: "violation.detect_delta_ms", unit: "ms"},
	{name: "violation.delta_violations", unit: "count"},
	{name: "stats.collect_ms", unit: "ms"},
	{name: "stats.collect_filtered_ms", unit: "ms"},
	{name: "stats.apply_ms", unit: "ms"},
	{name: "stats.apply_touched", unit: "count"},
	{name: "pruning.compute_ms", unit: "ms"},
	{name: "pruning.candidates_per_cell", unit: "count"},
	{name: "compile.prepare_self_ms", unit: "ms"},
	{name: "partition.components_ms", unit: "ms"},
	{name: "partition.components", unit: "count"},
	{name: "partition.largest_frac", unit: "ratio"},
	{name: "partition.color_ms", unit: "ms"},
	{name: "partition.colors", unit: "count"},
	{name: "ddlog.shared_index_ms", unit: "ms"},
	{name: "ddlog.ground_ms", unit: "ms"},
	{name: "ddlog.factors", unit: "count"},
	{name: "ddlog.variables", unit: "count"},
	{name: "ddlog.factors_per_s", unit: "1/s", higher: true},
	{name: "learn.learn_ms", unit: "ms"},
	{name: "learn.weights", unit: "count"},
	{name: "gibbs.run_ms", unit: "ms"},
	{name: "gibbs.var_updates_per_s", unit: "1/s", higher: true},
	{name: "gibbs.chromatic_speedup", unit: "ratio", higher: true},
	{name: "holoclean.detect_ms", unit: "ms"},
	{name: "holoclean.compile_ms", unit: "ms"},
	{name: "holoclean.learn_ms", unit: "ms"},
	{name: "holoclean.infer_ms", unit: "ms"},
	{name: "holoclean.shards", unit: "count"},
	{name: "holoclean.shards_reused", unit: "count", higher: true},
	{name: "holoclean.reuse_ratio", unit: "ratio", higher: true},
	{name: "holoclean.allocs_per_op", unit: "count"},
	{name: "holoclean.alloc_mb_per_op", unit: "MiB"},
	{name: "holoclean.clean_ms", unit: "ms"},
	{name: "holoclean.clean_self_ms", unit: "ms"},
	{name: "holoclean.layer_coverage", unit: "ratio", higher: true},
	{name: "holoclean.reclean_ms", unit: "ms"},
	{name: "holoclean.reclean_self_ms", unit: "ms"},
	{name: "holoclean.feedback_ms", unit: "ms"},
	{name: "holoclean.snapshot_ms", unit: "ms"},
	{name: "holoclean.restore_ms", unit: "ms"},
	{name: "holoclean.snapshot_kb", unit: "KiB"},
	{name: "serve.overhead_ms", unit: "ms"},
	{name: "serve.delta_p50_ms", unit: "ms"},
	{name: "serve.delta_p99_ms", unit: "ms"},
	{name: "serve.read_p50_ms", unit: "ms"},
	{name: "serve.read_p95_ms", unit: "ms"},
	{name: "serve.feedback_p50_ms", unit: "ms"},
	{name: "serve.create_ms", unit: "ms"},
	{name: "serve.http_429", unit: "count"},
	{name: "serve.req_kb_per_delta", unit: "KiB"},
	{name: "serve.resp_kb_per_delta", unit: "KiB"},
	{name: "store.append_ms", unit: "ms"},
	{name: "store.fsync_ms", unit: "ms"},
	{name: "store.recover_ms", unit: "ms"},
	{name: "store.compact_ms", unit: "ms"},
	{name: "store.wal_bytes_per_delta", unit: "count"},
	{name: "store.checkpoint_kb", unit: "KiB"},
	{name: "telemetry.overhead_ratio", unit: "ratio"},
}

var metricUnits = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one reported value, in the shape the result line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult collects one run's metrics and its output checks.
type runResult struct {
	attempted, failed int
	reasons           []string
	metrics           map[string]metric
	info              []string
}

func newRunResult() *runResult {
	return &runResult{metrics: make(map[string]metric)}
}

// set records a metric; the name must be one of the tables above.
func (r *runResult) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation or check.
func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.reasons) < 10 { // the first few explain a run; hundreds would bury them
		r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// checkF1 fails the run when repair quality is under the workload's
// floor. floor 0 disables the check (-smoke).
func (r *runResult) checkF1(floor, f1 float64) {
	r.attempted++
	if f1 < floor {
		r.fail("f1 %.4f is below the floor %.2f", f1, floor)
	}
}

// checkComplete fails the run for every wanted metric that is missing or
// not a finite number.
func (r *runResult) checkComplete(want []metricDef) {
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is missing from the result", d.name)
		}
	}
}

func (r *runResult) correct() bool { return r.failed == 0 }

// resultLine is the last line of a driver-mode run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runResult) line() resultLine {
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return resultLine{Correct: r.correct(), Attempted: attempted, Failed: r.failed, Metrics: r.metrics}
}

// printTable writes every metric by name with its unit, then the notes.
func (r *runResult) printTable(w *os.File, title string, defs []metricDef) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, d := range defs {
		if m, ok := r.metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	for _, s := range r.info {
		fmt.Fprintf(w, "  # %s\n", s)
	}
	for _, s := range r.reasons {
		fmt.Fprintf(w, "  ! %s\n", s)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkFile loads BENCHMARK.json from the working directory, the
// root of the checkout.
func readBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
