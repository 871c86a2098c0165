package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"holoclean"
	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/errordetect"
	"holoclean/internal/harness"
)

// workload is one named set of inputs. The sizes are frozen: BENCHMARK.json
// numbers are only comparable between commits that run the same ones.
type workload struct {
	name string
	// serve workloads drive a holocleand child over HTTP; batch workloads
	// drive Cleaner.Clean in a child of the benchmark itself.
	serve   bool
	tenants int
	kind    deltaKind
	// gen makes tenant k's relation from the run seed.
	gen func(seed int64, tenant int) *datagen.Generated
	// options is what the process under test cleans with. Serve workloads
	// run holocleand's own defaults, which this mirrors for the traced
	// library replay.
	options func() holoclean.Options
	// typoAttrs are the attributes a delta batch injects typos into;
	// feedbackAttrs the ones confirmations are drawn from. They are
	// disjoint on the local stream so a confirmed cell is never typo'd.
	typoAttrs, feedbackAttrs []int
	// f1Floor fails the run when repair quality falls below it; it sits
	// well under every seed's measured F1 (see README), so it trips on a
	// broken pipeline, not on seed-to-seed variation.
	f1Floor float64
}

// hospitalFDAttrs are the FD-covered attributes datagen.Hospital injects
// its own errors into.
var hospitalFDAttrs = []int{0, 1, 5, 6, 7, 8, 9, 13, 14, 15}

var workloads = []workload{
	{
		name:    "batch_hospital",
		tenants: 1,
		kind:    kindLocal,
		gen: func(seed int64, _ int) *datagen.Generated {
			return sizedHospital(2000, seed, 8200)
		},
		options:       func() holoclean.Options { return harness.HoloCleanOptions("hospital") },
		typoAttrs:     []int{9, 16, 17},
		feedbackAttrs: []int{0, 1, 5, 6, 7, 8, 13, 14, 15},
		f1Floor:       0.70,
	},
	{
		name:    "batch_skew_factors",
		tenants: 1,
		kind:    kindLocal,
		gen: func(seed int64, _ int) *datagen.Generated {
			return datagen.Skew(datagen.SkewConfig{Tuples: 2000, HotFrac: 0.9, Seed: seed})
		},
		options: func() holoclean.Options {
			o := holoclean.DefaultOptions()
			o.Variant = holoclean.VariantDCFactors
			return o
		},
		typoAttrs:     []int{2},
		feedbackAttrs: []int{0, 1},
		f1Floor:       0.90,
	},
	{
		name:          "serve_delta_local",
		serve:         true,
		tenants:       2,
		kind:          kindLocal,
		gen:           serveTenant,
		options:       holoclean.DefaultOptions,
		typoAttrs:     []int{9, 16, 17},
		feedbackAttrs: []int{0, 1, 5, 6, 7, 8, 13, 14, 15},
		f1Floor:       0.50,
	},
	{
		name:          "serve_delta_wide",
		serve:         true,
		tenants:       2,
		kind:          kindWide,
		gen:           serveTenant,
		options:       holoclean.DefaultOptions,
		typoAttrs:     hospitalFDAttrs,
		feedbackAttrs: hospitalFDAttrs,
		f1Floor:       0.65,
	},
}

// serveTenant gives each tenant of a serve workload its own 1000-row
// hospital relation.
func serveTenant(seed int64, tenant int) *datagen.Generated {
	return sizedHospital(1000, seed*100+int64(tenant)+1, 2950)
}

// sizedHospital makes a hospital relation with about wantNoisy noisy
// cells. Where datagen.Hospital's typos fall decides how many cells take
// part in a violation — 6200 to 9700 of a 2000-row relation's, the middle
// half of seeds 10% apart — and the work of a Clean or a Reclean follows
// that count almost proportionally. So that the seed changes which cells
// are dirty but not how large the problem is, this tries the generator's
// seeds 64·seed, 64·seed+1, … and returns the first relation within 2% of
// the wanted count (one seed in five is), or the closest of the 64.
func sizedHospital(tuples int, seed int64, wantNoisy int) *datagen.Generated {
	var best *datagen.Generated
	bestOff := math.MaxInt
	for j := int64(0); j < 64; j++ {
		g := datagen.Hospital(datagen.Config{Tuples: tuples, Seed: seed*64 + j})
		det, err := errordetect.Run(g.Dirty, &errordetect.Violations{Constraints: g.Constraints})
		if err != nil {
			panic(fmt.Sprintf("bench: detecting errors in a generated hospital relation: %v", err))
		}
		off := det.NumNoisy() - wantNoisy
		if off < 0 {
			off = -off
		}
		if off < bestOff {
			best, bestOff = g, off
		}
		if 50*off <= wantNoisy {
			break
		}
	}
	return best
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is everything the process under test receives for one tenant —
// CSV text and constraint text — next to the ground truth only the
// checker sees.
type inputs struct {
	csv         string
	constraints string
	gen         *datagen.Generated
}

func makeInputs(w workload, seed int64, tenant int) (*inputs, error) {
	g := w.gen(seed, tenant)
	var buf bytes.Buffer
	if err := g.Dirty.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("rendering %s CSV: %w", w.name, err)
	}
	var dcs strings.Builder
	for _, c := range g.Constraints {
		fmt.Fprintf(&dcs, "%s: %s\n", c.Name, c.String())
	}
	return &inputs{csv: buf.String(), constraints: dcs.String(), gen: g}, nil
}

// parse reads the inputs the way the process under test does.
func (in *inputs) parse() (*holoclean.Dataset, []*holoclean.Constraint, error) {
	ds, err := holoclean.ReadCSV(strings.NewReader(in.csv), "")
	if err != nil {
		return nil, nil, err
	}
	constraints, err := holoclean.ParseConstraints(strings.NewReader(in.constraints))
	if err != nil {
		return nil, nil, err
	}
	return ds, constraints, nil
}

// rowsOf copies a dataset into plain string rows.
func rowsOf(ds *dataset.Dataset) [][]string {
	out := make([][]string, ds.NumTuples())
	for t := range out {
		row := make([]string, ds.NumAttrs())
		for a := range row {
			row[a] = ds.GetString(t, a)
		}
		out[t] = row
	}
	return out
}

// datasetOf builds a dataset from string rows.
func datasetOf(attrs []string, rows [][]string) *dataset.Dataset {
	ds := dataset.New(attrs)
	for _, r := range rows {
		ds.Append(r)
	}
	return ds
}
