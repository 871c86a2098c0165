// Command bench is the repository's benchmark: four seeded workloads,
// the end-to-end metrics of BENCHMARK.json measured with telemetry off,
// and a separate traced run that drives each layer's public functions
// from outside and reports the per-layer metrics. See README.md.
//
// The acceptance driver runs one workload at a time:
//
//	bash bench/run.sh --workload serve_delta_local --seed 3 --seconds 20 --trace 0
//
// and reads the last line of standard output. Without -workload (or with
// -runs) the same program runs the workloads one after another, prints
// every metric by name, and saves the values for -compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// runPlan is how thorough a run is; -smoke shrinks it.
type runPlan struct {
	tmp      string // scratch directory inside the checkout, removed at exit
	outDir   string // where traces and result files go
	daemon   string // the holocleand binary under test
	setups   int    // set-up repetitions per run; the median is reported
	recovers int    // kill -9 recoveries per serve run; the median is reported
	restores int    // RestoreSession repetitions per batch run; cheaper, so more of them
	floors   bool   // enforce the F1 floors
}

func (p runPlan) floor(w workload) float64 {
	if !p.floors {
		return 0
	}
	return w.f1Floor
}

// flags are the parsed command line.
type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	smoke    bool
	compare  bool
	out      string
	daemon   string
	// The batch child's own flags.
	child    bool
	dir      string
	restores int
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run only this workload")
	flag.Int64Var(&f.seed, "seed", 1, "seed of the generated inputs and the mutation streams")
	flag.Float64Var(&f.seconds, "seconds", 0, "length of the timed phase (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&f.trace, "trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
	flag.IntVar(&f.runs, "runs", 0, "repeat each workload this many times on consecutive seeds and save the values for -compare")
	flag.BoolVar(&f.smoke, "smoke", false, "a few ops per workload, no thresholds: does everything still run?")
	flag.BoolVar(&f.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.StringVar(&f.out, "out", "", "result file of a suite (default bench/out/results.json)")
	flag.StringVar(&f.daemon, "holocleand", "", "holocleand binary (default: next to this binary)")
	flag.BoolVar(&f.child, "child", false, "internal: be the process under test of a batch workload")
	flag.StringVar(&f.dir, "dir", "", "internal: input directory of -child")
	flag.IntVar(&f.restores, "restores", 0, "internal: restore repetitions of -child")
	flag.Parse()
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(f flags) error {
	selected := workloads
	if f.workload != "" {
		w, ok := workloadByName(f.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", f.workload)
		}
		selected = []workload{w}
	}
	if f.child {
		return batchChild(selected[0], f.dir, f.seconds, f.restores)
	}
	if f.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	seconds := f.seconds
	if seconds == 0 {
		seconds = float64(bf.RunSeconds)
	}
	plan := runPlan{outDir: filepath.Join("bench", "out"), daemon: f.daemon, setups: 3, recovers: 3, restores: 5, floors: true}
	if f.smoke {
		seconds, plan.setups, plan.recovers, plan.restores, plan.floors = 0.5, 1, 1, 1, false
	}
	if plan.daemon == "" {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		plan.daemon = filepath.Join(filepath.Dir(self), "holocleand")
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	if plan.tmp, err = os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-"); err != nil {
		return err
	}
	if plan.tmp, err = filepath.Abs(plan.tmp); err != nil {
		return err
	}
	defer os.RemoveAll(plan.tmp)

	// Children die with the context, so an interrupt leaves nothing behind.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	traced := f.trace == 1
	if f.workload == "" || f.runs > 0 {
		return runSuite(ctx, selected, f.seed, seconds, traced, max(f.runs, 1), plan, bf, f.out)
	}

	// Driver mode: one run, the result on the last line of stdout.
	w := selected[0]
	res, err := runOne(ctx, w, f.seed, seconds, traced, plan, bf)
	if err != nil {
		return err
	}
	res.printTable(os.Stderr, w.name, wanted(traced))
	if err := json.NewEncoder(os.Stdout).Encode(res.line()); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s failed its output checks", w.name)
	}
	return nil
}

func wanted(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne performs one run of one workload and its completeness check:
// every metric BENCHMARK.json names for this kind of run must be there.
func runOne(ctx context.Context, w workload, seed int64, seconds float64, traced bool, plan runPlan, bf *benchmarkFile) (*runResult, error) {
	var res *runResult
	var err error
	switch {
	case traced:
		res, err = runTraced(ctx, w, seed, seconds, plan)
	case w.serve:
		res, err = runServe(ctx, w, seed, seconds, plan)
	default:
		res, err = runBatch(ctx, w, seed, seconds, plan)
	}
	if err != nil {
		return nil, err
	}
	res.checkComplete(wanted(traced))
	named := bf.EndToEnd
	if traced {
		named = bf.PerLayer
	}
	for _, m := range named {
		if _, ok := res.metrics[m.Name]; !ok {
			res.fail("BENCHMARK.json names %s, which this run did not produce", m.Name)
		}
	}
	return res, nil
}
