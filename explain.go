package holoclean

import (
	"fmt"
	"strings"

	"holoclean/internal/ddlog"
)

// Explanation describes the probabilistic program HoloClean compiles for
// a cleaning task, without running learning or inference — Figure 2's
// compilation module made inspectable.
type Explanation struct {
	// Program is the DDlog-style rendering of the inference rules
	// (Section 4.2, Algorithm 1, and the Section 5.2 relaxation).
	Program string
	// NoisyCells is |D_n| after error detection.
	NoisyCells int
	// InertCells counts the query variables Algorithm 2 left a single
	// candidate: they carry no factors (RunStats.InertCells).
	InertCells int
	// Variables, QueryVariables, EvidenceVariables, Factors and Weights
	// size the grounded factor graph.
	Variables         int
	QueryVariables    int
	EvidenceVariables int
	Factors           int
	// PaperFactors counts groundings per value combination, the
	// accounting of the paper's Example 5.
	PaperFactors int64
	// Weights is the number of distinct (tied) weights.
	Weights int
	// DomainSizes summarizes Algorithm 2's output: total candidates and
	// the largest single-cell domain.
	TotalCandidates int
	MaxDomain       int
	// Matches counts Matched(t,a,d,k) entries from matching dependencies.
	Matches int
	// PartitionGroups counts Algorithm 3 groups (0 unless the variant
	// requests partitioning).
	PartitionGroups int
}

// Explain compiles the cleaning task — the same stages, over the same
// detectors, statistics and options, that Clean runs before learning — and
// grounds the whole relation once to report the generated program and
// model sizes. The input dataset is not modified.
func (cl *Cleaner) Explain(ds *Dataset, constraints []*Constraint) (*Explanation, error) {
	p := newPass(cl.opts, ds, constraints, nil)
	if err := p.compile(); err != nil {
		return nil, err
	}
	prep := p.prep
	g, err := ddlog.Ground(prep.DB, prep.Program, ddlog.Config{MaxScanCounterparts: cl.opts.MaxScanCounterparts})
	if err != nil {
		return nil, err
	}
	return &Explanation{
		Program:           prep.Program.Render(prep.Bounds),
		NoisyCells:        p.res.Stats.NoisyCells,
		InertCells:        p.res.Stats.InertCells,
		Variables:         g.Stats.Variables,
		QueryVariables:    g.Stats.QueryVars,
		EvidenceVariables: g.Stats.EvidenceVars,
		Factors:           g.Graph.NumFactors(),
		PaperFactors:      g.Stats.PaperFactors,
		Weights:           g.Graph.Weights.Len(),
		TotalCandidates:   prep.Domains.TotalCandidates(),
		MaxDomain:         prep.Domains.MaxDomain(),
		Matches:           len(prep.Matches),
		PartitionGroups:   len(prep.Groups),
	}, nil
}

// String renders a human-readable summary.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "noisy cells: %d\n", e.NoisyCells)
	fmt.Fprintf(&b, "variables:   %d (%d query, %d of them inert; %d evidence)\n", e.Variables, e.QueryVariables, e.InertCells, e.EvidenceVariables)
	fmt.Fprintf(&b, "factors:     %d compact (%d paper-style groundings), %d weights\n", e.Factors, e.PaperFactors, e.Weights)
	fmt.Fprintf(&b, "domains:     %d candidates total, max %d per cell\n", e.TotalCandidates, e.MaxDomain)
	if e.Matches > 0 {
		fmt.Fprintf(&b, "matches:     %d\n", e.Matches)
	}
	if e.PartitionGroups > 0 {
		fmt.Fprintf(&b, "groups:      %d\n", e.PartitionGroups)
	}
	b.WriteString("program:\n")
	for _, line := range strings.Split(strings.TrimRight(e.Program, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
