// Package harness runs the evaluation of Section 6: every (dataset ×
// method × τ × variant) cell of Tables 2–4 and Figures 3–6, plus the
// micro-benchmarks of Section 6.3. cmd/experiments prints them. Dataset
// sizes default to laptop-scale; see DESIGN.md substitution 5.
package harness

import (
	"fmt"
	"io"
	"time"

	"holoclean"
	"holoclean/internal/baseline/holistic"
	"holoclean/internal/baseline/katara"
	"holoclean/internal/baseline/scare"
	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/metrics"
	"holoclean/internal/violation"
)

// Config scales the evaluation.
type Config struct {
	HospitalTuples   int
	FlightsTuples    int
	FoodTuples       int
	PhysiciansTuples int
	Seed             int64
	// BaselineTimeout is the wall-clock budget per baseline run; a method
	// exceeding it is reported as DNF with zero scores, mirroring the
	// "did not terminate" entries of Tables 3 and 4.
	BaselineTimeout time.Duration
}

// DefaultConfig returns laptop-scale sizes that preserve the Table 2
// ratios (Hospital and Flights at paper scale; Food and Physicians
// scaled down).
func DefaultConfig() Config {
	return Config{
		HospitalTuples:   1000,
		FlightsTuples:    2377,
		FoodTuples:       3000,
		PhysiciansTuples: 5000,
		Seed:             1,
		BaselineTimeout:  5 * time.Minute,
	}
}

// PaperTau returns the per-dataset pruning threshold Table 3 reports.
func PaperTau(name string) float64 {
	switch name {
	case "hospital":
		return 0.5
	case "flights":
		return 0.3
	case "food":
		return 0.5
	case "physicians":
		return 0.7
	}
	return 0.5
}

// Datasets generates the four evaluation datasets.
func Datasets(cfg Config) []*datagen.Generated {
	return []*datagen.Generated{
		datagen.Hospital(datagen.Config{Tuples: cfg.HospitalTuples, Seed: cfg.Seed}),
		datagen.Flights(datagen.Config{Tuples: cfg.FlightsTuples, Seed: cfg.Seed}),
		datagen.Food(datagen.Config{Tuples: cfg.FoodTuples, Seed: cfg.Seed}),
		datagen.Physicians(datagen.Config{Tuples: cfg.PhysiciansTuples, Seed: cfg.Seed}),
	}
}

// MethodResult is one (dataset, method) evaluation cell.
type MethodResult struct {
	Method   string
	Eval     metrics.Eval
	Runtime  time.Duration
	TimedOut bool
	NA       bool // method not applicable (KATARA without a dictionary)
	Err      error
}

// HoloCleanOptions returns the Table 3 configuration for a dataset: the
// DC Feats variant, no partitioning, paper τ.
func HoloCleanOptions(name string) holoclean.Options {
	opts := holoclean.DefaultOptions()
	opts.Tau = PaperTau(name)
	opts.Variant = holoclean.VariantDCFeats
	return opts
}

// RunHoloClean executes the full pipeline and evaluates against truth.
func RunHoloClean(g *datagen.Generated, opts holoclean.Options) MethodResult {
	_, r := RunHoloCleanResult(g, opts)
	return r
}

// RunHoloCleanResult is RunHoloClean but also returns the raw result for
// calibration analysis (Figure 6).
func RunHoloCleanResult(g *datagen.Generated, opts holoclean.Options) (*holoclean.Result, MethodResult) {
	start := time.Now()
	res, err := holoclean.New(opts).Clean(g.Dirty, g.Constraints)
	if err != nil {
		return nil, MethodResult{Method: "HoloClean", Err: err}
	}
	eval, err := metrics.Evaluate(g.Dirty, res.Repaired, g.Truth)
	if err != nil {
		return nil, MethodResult{Method: "HoloClean", Err: err}
	}
	return res, MethodResult{
		Method:  "HoloClean",
		Eval:    eval,
		Runtime: time.Since(start),
	}
}

// runWithTimeout runs fn under the baseline budget.
func runWithTimeout(name string, budget time.Duration, g *datagen.Generated, fn func() (*dataset.Dataset, error)) MethodResult {
	type outcome struct {
		repaired *dataset.Dataset
		err      error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		repaired, err := fn()
		ch <- outcome{repaired, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return MethodResult{Method: name, Err: o.err}
		}
		eval, err := metrics.Evaluate(g.Dirty, o.repaired, g.Truth)
		if err != nil {
			return MethodResult{Method: name, Err: err}
		}
		return MethodResult{
			Method:  name,
			Eval:    eval,
			Runtime: time.Since(start),
		}
	case <-time.After(budget):
		return MethodResult{Method: name, TimedOut: true, Runtime: budget}
	}
}

// RunHolistic evaluates the Holistic baseline [12].
func RunHolistic(g *datagen.Generated, budget time.Duration) MethodResult {
	return runWithTimeout("Holistic", budget, g, func() (*dataset.Dataset, error) {
		res, err := holistic.Repair(g.Dirty, g.Constraints, holistic.Config{})
		if err != nil {
			return nil, err
		}
		return res.Repaired, nil
	})
}

// RunKATARA evaluates the KATARA baseline [13]. Datasets without a
// dictionary report NA, as Table 3 does for Flights.
func RunKATARA(g *datagen.Generated, budget time.Duration) MethodResult {
	if len(g.Dictionaries) == 0 {
		return MethodResult{Method: "KATARA", NA: true}
	}
	return runWithTimeout("KATARA", budget, g, func() (*dataset.Dataset, error) {
		res, err := katara.Repair(g.Dirty, g.Dictionaries, katara.Config{})
		if err != nil {
			return nil, err
		}
		return res.Repaired, nil
	})
}

// RunSCARE evaluates the SCARE baseline [39].
func RunSCARE(g *datagen.Generated, budget time.Duration) MethodResult {
	return runWithTimeout("SCARE", budget, g, func() (*dataset.Dataset, error) {
		res, err := scare.Repair(g.Dirty, scare.Config{})
		if err != nil {
			return nil, err
		}
		return res.Repaired, nil
	})
}

// Table2Row reports the dataset parameters of Table 2.
type Table2Row struct {
	Dataset    string
	Tuples     int
	Attributes int
	Violations int
	NoisyCells int
	ICs        int
}

// Table2 computes the Table 2 parameters for the generated datasets.
func Table2(cfg Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, g := range Datasets(cfg) {
		det, err := violation.NewDetector(g.Dirty, g.Constraints)
		if err != nil {
			return nil, err
		}
		viols := det.Detect()
		h := violation.BuildHypergraph(det, viols)
		rows = append(rows, Table2Row{
			Dataset:    g.Name,
			Tuples:     g.Dirty.NumTuples(),
			Attributes: g.Dirty.NumAttrs(),
			Violations: len(viols),
			NoisyCells: len(h.Cells()),
			ICs:        len(g.Constraints),
		})
	}
	return rows, nil
}

// PrintTable2 renders Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-12s %10s %6s %12s %12s %5s\n", "Dataset", "Tuples", "Attrs", "Violations", "NoisyCells", "ICs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %6d %12d %12d %5d\n", r.Dataset, r.Tuples, r.Attributes, r.Violations, r.NoisyCells, r.ICs)
	}
}

// Table3Row is one dataset row of Tables 3 and 4.
type Table3Row struct {
	Dataset string
	Tau     float64
	Results []MethodResult
}

// Table3 runs HoloClean and the three baselines on every dataset.
func Table3(cfg Config) []Table3Row {
	var rows []Table3Row
	for _, g := range Datasets(cfg) {
		row := Table3Row{Dataset: g.Name, Tau: PaperTau(g.Name)}
		row.Results = append(row.Results, RunHoloClean(g, HoloCleanOptions(g.Name)))
		row.Results = append(row.Results, RunHolistic(g, cfg.BaselineTimeout))
		row.Results = append(row.Results, RunKATARA(g, cfg.BaselineTimeout))
		row.Results = append(row.Results, RunSCARE(g, cfg.BaselineTimeout))
		rows = append(rows, row)
	}
	return rows
}

// PrintTable3 renders precision/recall/F1 per method, Table 3 style.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-12s %-6s", "Dataset", "(tau)")
	for _, m := range []string{"HoloClean", "Holistic", "KATARA", "SCARE"} {
		fmt.Fprintf(w, " | %-21s", m)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-19s", "")
	for range 4 {
		fmt.Fprintf(w, " | %6s %6s %6s", "Prec", "Rec", "F1")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s (%.1f) ", r.Dataset, r.Tau)
		for _, m := range r.Results {
			switch {
			case m.NA:
				fmt.Fprintf(w, " | %6s %6s %6s", "n/a", "n/a", "n/a")
			case m.TimedOut:
				fmt.Fprintf(w, " | %6s %6s %6s", "DNF", "DNF", "DNF")
			case m.Err != nil:
				fmt.Fprintf(w, " | %6s %6s %6s", "err", "err", "err")
			default:
				fmt.Fprintf(w, " | %6.3f %6.3f %6.3f", m.Eval.Precision, m.Eval.Recall, m.Eval.F1)
			}
		}
		fmt.Fprintln(w)
	}
}

// PrintTable4 renders the runtime columns of the same runs, Table 4 style.
func PrintTable4(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-12s", "Dataset")
	for _, m := range []string{"HoloClean", "Holistic", "KATARA", "SCARE"} {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", r.Dataset)
		for _, m := range r.Results {
			switch {
			case m.NA:
				fmt.Fprintf(w, " %12s", "n/a")
			case m.TimedOut:
				fmt.Fprintf(w, " %12s", "DNF")
			case m.Err != nil:
				fmt.Fprintf(w, " %12s", "err")
			default:
				fmt.Fprintf(w, " %12s", m.Runtime.Round(time.Millisecond))
			}
		}
		fmt.Fprintln(w)
	}
}
