package harness

import (
	"fmt"
	"io"
	"time"

	"holoclean"
	"holoclean/internal/compile"
	"holoclean/internal/datagen"
)

// GroundingSizeRow reports the grounded model size for one optimization
// configuration — the Section 5.1 claim that domain pruning plus
// partitioning shrink factor graphs by 7×–96,000×. PaperFactors counts
// groundings the way Example 5 does (one per value combination).
type GroundingSizeRow struct {
	Dataset      string
	Pruning      bool
	Partitioning bool
	Variables    int
	Factors      int
	PaperFactors int64
	GroundTime   time.Duration
}

// AblationGroundingSize grounds the DC Factors model on a dataset with
// the optimizations toggled. FullDomain (no pruning) is the configuration
// the paper reports as intractable for inference, so only grounding is
// measured here.
func AblationGroundingSize(g *datagen.Generated) ([]GroundingSizeRow, error) {
	var rows []GroundingSizeRow
	type cfg struct{ pruning, partitioning bool }
	for _, c := range []cfg{
		{false, false},
		{true, false},
		{true, true},
	} {
		opts := HoloCleanOptions(g.Name)
		opts.Variant = holocleanVariant(true, false, c.partitioning)
		opts.FullDomain = !c.pruning
		opts.EvidenceSample = 500
		start := time.Now()
		ex, err := holoclean.New(opts).Explain(g.Dirty, g.Constraints)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GroundingSizeRow{
			Dataset:      g.Name,
			Pruning:      c.pruning,
			Partitioning: c.partitioning,
			Variables:    ex.Variables,
			Factors:      ex.Factors,
			PaperFactors: ex.PaperFactors,
			GroundTime:   time.Since(start),
		})
	}
	return rows, nil
}

// PrintGroundingSize renders the ablation with reduction factors against
// the unoptimized configuration.
func PrintGroundingSize(w io.Writer, rows []GroundingSizeRow) {
	fmt.Fprintf(w, "%-12s %-8s %-10s %10s %12s %16s %12s %10s\n",
		"Dataset", "Pruning", "Partition", "Variables", "Factors", "PaperFactors", "GroundTime", "Reduction")
	var base float64
	for i, r := range rows {
		if i == 0 {
			base = float64(r.PaperFactors)
		}
		red := "1x"
		if r.PaperFactors > 0 && base > 0 {
			red = fmt.Sprintf("%.0fx", base/float64(r.PaperFactors))
		}
		fmt.Fprintf(w, "%-12s %-8v %-10v %10d %12d %16d %12s %10s\n",
			r.Dataset, r.Pruning, r.Partitioning, r.Variables, r.Factors, r.PaperFactors,
			r.GroundTime.Round(time.Millisecond), red)
	}
}

// PartitioningRow compares DC Factors with and without Algorithm 3
// (Section 5.1.2: speed-ups up to 2×, F1 loss ≤6% worst case).
type PartitioningRow struct {
	Dataset     string
	Partitioned bool
	Runtime     time.Duration
	F1          float64
}

// AblationPartitioning runs the DC Factors variant with and without
// partitioning on one dataset.
func AblationPartitioning(g *datagen.Generated) []PartitioningRow {
	var rows []PartitioningRow
	for _, part := range []bool{false, true} {
		opts := HoloCleanOptions(g.Name)
		opts.Variant = holocleanVariant(true, false, part)
		r := RunHoloClean(g, opts)
		row := PartitioningRow{Dataset: g.Name, Partitioned: part, Runtime: r.Runtime}
		if r.Err == nil {
			row.F1 = r.Eval.F1
		}
		rows = append(rows, row)
	}
	return rows
}

func holocleanVariant(factors, feats, part bool) compile.Variant {
	return compile.Variant{DCFactors: factors, DCFeatures: feats, Partition: part}
}

// PrintPartitioning renders the partitioning ablation.
func PrintPartitioning(w io.Writer, rows []PartitioningRow) {
	fmt.Fprintf(w, "%-12s %-12s %12s %8s\n", "Dataset", "Partitioned", "Runtime", "F1")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12v %12s %8.3f\n", r.Dataset, r.Partitioned, r.Runtime.Round(time.Millisecond), r.F1)
	}
}
