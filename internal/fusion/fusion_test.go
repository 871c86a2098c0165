package fusion

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// buildReports creates a flights-style dataset: numFlights entities, each
// reported by sources with the given accuracies. Returns the dataset and
// the true value per flight.
func buildReports(numFlights, reportsPer int, accuracies []float64, seed int64) (*dataset.Dataset, map[string]string) {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New([]string{"Flight", "Dep"})
	truth := make(map[string]string)
	for f := 0; f < numFlights; f++ {
		flight := fmt.Sprintf("F%03d", f)
		correct := fmt.Sprintf("%02d:00", f%24)
		wrong := fmt.Sprintf("%02d:59", f%24)
		truth[flight] = correct
		for r := 0; r < reportsPer; r++ {
			s := rng.Intn(len(accuracies))
			val := correct
			if rng.Float64() > accuracies[s] {
				val = wrong
			}
			ti := ds.Append([]string{flight, val})
			ds.SetSource(ti, fmt.Sprintf("src%d", s))
		}
	}
	return ds, truth
}

func TestEstimateSeparatesSources(t *testing.T) {
	acc := []float64{0.95, 0.95, 0.3, 0.3}
	ds, _ := buildReports(60, 16, acc, 1)
	bounds, err := dc.BindAll(dc.FD("f", []string{"Flight"}, []string{"Dep"}), ds)
	if err != nil {
		t.Fatal(err)
	}
	v := Estimate(ds, bounds, 5)
	good := (v.Accuracy["src0"] + v.Accuracy["src1"]) / 2
	bad := (v.Accuracy["src2"] + v.Accuracy["src3"]) / 2
	if good <= bad+0.2 {
		t.Errorf("accuracy separation too weak: good=%v bad=%v", good, bad)
	}
}

// TestEstimateRepeatable pins that the fixpoint is a pure function of its
// input: repeated runs agree to the last bit, which requires every float
// accumulation (the M-step's per-source sums across groups, the E-step's
// normaliser across values) to run in a fixed rather than map order.
func TestEstimateRepeatable(t *testing.T) {
	ds, _ := buildReports(60, 16, []float64{0.95, 0.8, 0.6, 0.3}, 4)
	bounds, err := dc.BindAll(dc.FD("f", []string{"Flight"}, []string{"Dep"}), ds)
	if err != nil {
		t.Fatal(err)
	}
	dep := ds.AttrIndex("Dep")
	want := Estimate(ds, bounds, 5)
	for rep := 0; rep < 8; rep++ {
		got := Estimate(ds, bounds, 5)
		for s, a := range want.Accuracy {
			if got.Accuracy[s] != a {
				t.Fatalf("run %d: accuracy of %s = %v, first run %v", rep, s, got.Accuracy[s], a)
			}
		}
		for tu := 0; tu < ds.NumTuples(); tu++ {
			c := dataset.Cell{Tuple: tu, Attr: dep}
			for _, val := range ds.ActiveDomain(dep) {
				a, _ := want.Share(c, val)
				if b, _ := got.Share(c, val); a != b {
					t.Fatalf("run %d: share of %v for %v = %v, first run %v", rep, val, c, b, a)
				}
			}
		}
	}
}

func TestEstimateSharesFavorTruth(t *testing.T) {
	acc := []float64{0.9, 0.9, 0.9, 0.4}
	ds, truth := buildReports(40, 12, acc, 2)
	bounds, _ := dc.BindAll(dc.FD("f", []string{"Flight"}, []string{"Dep"}), ds)
	v := Estimate(ds, bounds, 5)
	dep := ds.AttrIndex("Dep")
	flight := ds.AttrIndex("Flight")
	correct, total := 0, 0
	for tu := 0; tu < ds.NumTuples(); tu++ {
		c := dataset.Cell{Tuple: tu, Attr: dep}
		trueVal, okT := ds.Dict().Lookup(truth[ds.GetString(tu, flight)])
		if !okT {
			continue
		}
		shareTrue, ok := v.Share(c, trueVal)
		if !ok {
			continue
		}
		total++
		// The fused posterior should place most mass on the true value.
		best := true
		for _, val := range ds.ActiveDomain(dep) {
			if s, _ := v.Share(c, val); s > shareTrue {
				best = false
			}
		}
		if best {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no shares computed")
	}
	if frac := float64(correct) / float64(total); frac < 0.9 {
		t.Errorf("fused posterior picks truth for %.2f of cells, want >= 0.9", frac)
	}
}

func TestEstimateSharesNormalized(t *testing.T) {
	acc := []float64{0.8, 0.6}
	ds, _ := buildReports(10, 8, acc, 3)
	bounds, _ := dc.BindAll(dc.FD("f", []string{"Flight"}, []string{"Dep"}), ds)
	v := Estimate(ds, bounds, 4)
	dep := ds.AttrIndex("Dep")
	for tu := 0; tu < ds.NumTuples(); tu++ {
		c := dataset.Cell{Tuple: tu, Attr: dep}
		sum := 0.0
		any := false
		for _, val := range ds.ActiveDomain(dep) {
			if s, ok := v.Share(c, val); ok {
				sum += s
				any = true
			}
		}
		if any && math.Abs(sum-1) > 1e-6 {
			t.Errorf("shares for %v sum to %v", c, sum)
		}
	}
}

func TestEstimateNoSources(t *testing.T) {
	ds := dataset.New([]string{"Flight", "Dep"})
	ds.Append([]string{"F1", "10:00"})
	ds.Append([]string{"F1", "11:00"})
	bounds, _ := dc.BindAll(dc.FD("f", []string{"Flight"}, []string{"Dep"}), ds)
	v := Estimate(ds, bounds, 3)
	// Without provenance every report gets the unknown-source weight;
	// shares still exist and are normalized.
	dep := ds.AttrIndex("Dep")
	c := dataset.Cell{Tuple: 0, Attr: dep}
	v1, _ := ds.Dict().Lookup("10:00")
	if s, ok := v.Share(c, v1); !ok || s <= 0 {
		t.Errorf("share without sources = %v/%v", s, ok)
	}
}

func TestEstimateNoGroups(t *testing.T) {
	ds := dataset.New([]string{"A", "B"})
	ds.Append([]string{"x", "1"})
	v := Estimate(ds, nil, 3)
	if _, ok := v.Share(dataset.Cell{Tuple: 0, Attr: 1}, 1); ok {
		t.Errorf("no groups should yield no shares")
	}
}

func TestClamp(t *testing.T) {
	if clamp(0) != 0.5 {
		t.Errorf("unknown source should default to 0.5")
	}
	if clamp(0.01) != 0.05 || clamp(0.99) != 0.95 {
		t.Errorf("clamping bounds wrong")
	}
	if clamp(0.7) != 0.7 {
		t.Errorf("in-range accuracy should pass through")
	}
}
