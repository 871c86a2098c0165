// Package errordetect implements the error detection module of HoloClean
// (Section 2.2). Error detection separates the cells of the input dataset
// into noisy cells D_n (candidates for repair, whose random variables are
// query variables) and clean cells D_c (treated as evidence during
// learning). HoloClean treats detection as a black box: any Detector can
// be plugged in, and Run unions several. A detector computes nothing the
// pipeline already owns: the statistics-based ones are handed the pass's
// raw statistics.
package errordetect

import (
	"fmt"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/stats"
	"holoclean/internal/text"
	"holoclean/internal/violation"
)

// Detector flags potentially erroneous cells.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Detect returns the cells of ds it considers noisy.
	Detect(ds *dataset.Dataset) ([]dataset.Cell, error)
}

// Result is the D_n / D_c split: the noisy cells in (tuple, attribute)
// order, plus the same set as a dense tuple × attribute mask so membership
// is an array read — the masked-statistics scan asks once per cell per
// attribute pair.
type Result struct {
	Noisy []dataset.Cell
	mask  []bool // row-major, tuples × attrs
	attrs int
}

// IsNoisy reports whether cell c was flagged. A cell outside the relation
// the detectors ran over — a row appended since — was not.
func (r *Result) IsNoisy(c dataset.Cell) bool {
	if c.Tuple < 0 || c.Attr < 0 || c.Attr >= r.attrs {
		return false
	}
	i := c.Tuple*r.attrs + c.Attr
	return i < len(r.mask) && r.mask[i]
}

// NumNoisy returns |D_n|.
func (r *Result) NumNoisy() int { return len(r.Noisy) }

// Run executes all detectors and unions their outputs into a Result with
// deterministic cell order. A detector that flags a cell outside ds is a
// bug in that detector and fails the run.
func Run(ds *dataset.Dataset, detectors ...Detector) (*Result, error) {
	tuples, attrs := ds.NumTuples(), ds.NumAttrs()
	res := &Result{mask: make([]bool, tuples*attrs), attrs: attrs}
	for _, d := range detectors {
		cells, err := d.Detect(ds)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			if c.Tuple < 0 || c.Tuple >= tuples || c.Attr < 0 || c.Attr >= attrs {
				return nil, fmt.Errorf("errordetect: detector %q flagged cell (%d,%d) outside the %d×%d relation",
					d.Name(), c.Tuple, c.Attr, tuples, attrs)
			}
			res.mask[c.Tuple*attrs+c.Attr] = true
		}
	}
	for t := 0; t < tuples; t++ {
		for a, noisy := range res.mask[t*attrs : (t+1)*attrs] {
			if noisy {
				res.Noisy = append(res.Noisy, dataset.Cell{Tuple: t, Attr: a})
			}
		}
	}
	return res, nil
}

// Violations flags every cell participating in a denial-constraint
// violation [11] — the detection mode used for all paper experiments
// ("for all datasets we seek to repair cells that participate in
// violations of integrity constraints", Section 6.1).
type Violations struct {
	Constraints []*dc.Constraint

	// Changed, when non-nil, scopes detection to a delta: Prev's
	// violations among tuples outside Changed are kept and only the pairs
	// that join a changed tuple with the tuples of its join blocks are
	// re-detected (violation.Detector.DetectDelta). Incremental cleaning
	// sessions use this to re-run detection in time proportional to the
	// delta plus one block index per join attribute; the
	// output is identical to that of a nil Changed — every tuple changed,
	// full detection — over the mutated dataset.
	Prev    []violation.Violation
	Changed map[int]bool

	// LastHypergraph, when non-nil after Detect, is the conflict
	// hypergraph of the detected violations, reusable by partitioning and
	// by the Holistic baseline without re-running detection.
	LastHypergraph *violation.Hypergraph
}

// Name implements Detector.
func (v *Violations) Name() string { return "dc-violations" }

// Detect implements Detector.
func (v *Violations) Detect(ds *dataset.Dataset) ([]dataset.Cell, error) {
	det, err := violation.NewDetector(ds, v.Constraints)
	if err != nil {
		return nil, err
	}
	v.LastHypergraph = violation.BuildHypergraph(det, det.DetectDelta(v.Prev, v.Changed))
	return v.LastHypergraph.Cells(), nil
}

// Outliers flags cells whose value is a rare, near-duplicate variant of a
// dominant value in the same attribute — the frequency/outlier detection
// family of [15, 22] specialized to categorical data. A value v is an
// outlier when freq(v) ≤ MaxCount and some value v' in the attribute has
// freq(v') ≥ DominanceRatio·freq(v) with v ≈ v' (edit similarity), the
// signature of a misspelling such as "Cicago" vs "Chicago".
type Outliers struct {
	Stats          *stats.Stats // required: the raw statistics of the dataset Detect is given
	MaxCount       int          // rare threshold; default 3
	DominanceRatio float64      // dominance multiplier; default 10
}

// Name implements Detector.
func (o *Outliers) Name() string { return "outliers" }

// Detect implements Detector.
func (o *Outliers) Detect(ds *dataset.Dataset) ([]dataset.Cell, error) {
	st := o.Stats
	if st == nil {
		return nil, fmt.Errorf("errordetect: %s: Stats is required", o.Name())
	}
	maxCount := o.MaxCount
	if maxCount == 0 {
		maxCount = 3
	}
	ratio := o.DominanceRatio
	if ratio == 0 {
		ratio = 10
	}
	outlier := make([]map[dataset.Value]bool, ds.NumAttrs())
	for a := 0; a < ds.NumAttrs(); a++ {
		outlier[a] = make(map[dataset.Value]bool)
		var rare, common []dataset.Value
		for _, v := range ds.ActiveDomain(a) {
			if st.Freq(a, v) <= maxCount {
				rare = append(rare, v)
			} else {
				common = append(common, v)
			}
		}
		for _, rv := range rare {
			rs := ds.Dict().String(rv)
			for _, cv := range common {
				if float64(st.Freq(a, cv)) >= ratio*float64(st.Freq(a, rv)) &&
					text.Similar(rs, ds.Dict().String(cv)) {
					outlier[a][rv] = true
					break
				}
			}
		}
	}
	var out []dataset.Cell
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < ds.NumAttrs(); a++ {
			if outlier[a][ds.Get(t, a)] {
				out = append(out, dataset.Cell{Tuple: t, Attr: a})
			}
		}
	}
	return out, nil
}

// CondOutliers flags conditional outliers in the style of Das &
// Schneider [15]: a cell whose observed value is poorly supported by its
// tuple context while some other value is strongly supported. Using the
// co-occurrence statistics, the support of value v for cell c is the mean
// of Pr[v | v_sib] over c's non-null sibling cells; c is flagged when its
// observed support is at most MaxProb and the best value's support is at
// least MinRatio times larger. This catches errors that violate no
// integrity constraint — e.g. the "Johnnyo's" DBAName of tuple t4 in
// Figure 1, which only the quantitative-statistics signal can see.
type CondOutliers struct {
	Stats    *stats.Stats // required: the raw statistics of the dataset Detect is given
	MaxProb  float64      // default 0.35
	MinRatio float64      // default 2
}

// Name implements Detector.
func (o *CondOutliers) Name() string { return "cond-outliers" }

// Detect implements Detector.
func (o *CondOutliers) Detect(ds *dataset.Dataset) ([]dataset.Cell, error) {
	st := o.Stats
	if st == nil {
		return nil, fmt.Errorf("errordetect: %s: Stats is required", o.Name())
	}
	maxProb := o.MaxProb
	if maxProb == 0 {
		maxProb = 0.35
	}
	minRatio := o.MinRatio
	if minRatio == 0 {
		minRatio = 2
	}
	// support[code] accumulates Σ_sib Pr[v | v_sib] for one cell at a time,
	// over the codes of the cell's attribute; touched lists the nonzero
	// entries so the next cell resets only those. Every term is positive,
	// so a zero entry is an untouched one.
	codes := 0
	for a := 0; a < ds.NumAttrs(); a++ {
		codes = max(codes, st.NumCodes(a))
	}
	support := make([]float64, codes)
	var touched []int32
	var out []dataset.Cell
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < ds.NumAttrs(); a++ {
			obs := ds.Get(t, a)
			if obs == dataset.Null {
				continue
			}
			// Siblings whose value occurs once carry no distributional
			// information (the conditional is degenerate) and are skipped.
			// Each value's terms are summed in ascending g.
			siblings := 0
			for g := 0; g < ds.NumAttrs(); g++ {
				if g == a {
					continue
				}
				vg := ds.Get(t, g)
				if vg == dataset.Null {
					continue
				}
				row := st.Row(a, g, vg)
				if row.Given() < 2 {
					continue
				}
				siblings++
				for i := 0; i < row.Len(); i++ {
					k, cnt := row.At(i)
					if support[k] == 0 {
						touched = append(touched, k)
					}
					support[k] += float64(cnt) / float64(row.Given())
				}
			}
			obsSupport, best := 0.0, 0.0
			if k := st.Code(a, obs); k >= 0 {
				obsSupport = support[k]
			}
			for _, k := range touched {
				best = max(best, support[k])
				support[k] = 0
			}
			touched = touched[:0]
			if siblings == 0 {
				continue
			}
			obsSupport /= float64(siblings)
			best /= float64(siblings)
			if obsSupport <= maxProb && best >= minRatio*obsSupport {
				out = append(out, dataset.Cell{Tuple: t, Attr: a})
			}
		}
	}
	return out, nil
}

// Nulls flags empty cells.
type Nulls struct{}

// Name implements Detector.
func (Nulls) Name() string { return "nulls" }

// Detect implements Detector.
func (Nulls) Detect(ds *dataset.Dataset) ([]dataset.Cell, error) {
	var out []dataset.Cell
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Get(t, a) == dataset.Null {
				out = append(out, dataset.Cell{Tuple: t, Attr: a})
			}
		}
	}
	return out, nil
}

// Dictionary flags cells contradicted by external dictionary matches
// (Section 2.2's "methods that rely on external and labeled data"): the
// matches of the dataset Detect is given, applied once by the caller,
// which compilation also injects into the domains.
type Dictionary struct {
	Matches []extdict.Match
}

// Name implements Detector.
func (d *Dictionary) Name() string { return "dictionary" }

// Detect implements Detector.
func (d *Dictionary) Detect(ds *dataset.Dataset) ([]dataset.Cell, error) {
	return extdict.DetectErrors(ds, d.Matches), nil
}
