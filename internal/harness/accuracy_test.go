package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"holoclean"
	"holoclean/internal/datagen"
)

func TestWriteAccuracyJSONRoundTrip(t *testing.T) {
	rep := &AccuracyReport{
		Suite:  "accuracy",
		Seed:   7,
		Tuples: map[string]int{"hospital": 100},
		Cells: []AccuracyCell{
			{Group: "methods", Dataset: "hospital", Method: "HoloClean", Precision: 0.9, Recall: 0.8, F1: 0.847, Repairs: 10, CorrectRepairs: 9, Errors: 11, RuntimeMS: 12.5},
			{Group: "methods", Dataset: "flights", Method: "KATARA", NA: true},
			{Group: "detectors", Dataset: "hospital", Method: "violations+outliers", Precision: 1, Recall: 0.5, F1: 2.0 / 3},
		},
		OK: true,
	}
	var buf bytes.Buffer
	if err := WriteAccuracyJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	// The artifact must be valid JSON that round-trips to the same report.
	var back AccuracyReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, buf.String())
	}
	if !back.OK || back.Seed != 7 || len(back.Cells) != 3 {
		t.Errorf("round-trip lost data: %+v", back)
	}
	if back.Cells[0].F1 != rep.Cells[0].F1 || back.Cells[1].NA != true {
		t.Errorf("cells differ after round trip: %+v", back.Cells)
	}
	// One cell per line, so the regression gate can diff line-by-line.
	for _, c := range rep.Cells {
		marker := `"method":"` + c.Method + `"`
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, marker) && strings.Contains(line, `"group":"`+c.Group+`"`) {
				found = true
				var one AccuracyCell
				if err := json.Unmarshal([]byte(strings.TrimSuffix(line, ",")), &one); err != nil {
					t.Errorf("cell line is not self-contained JSON: %v\n%s", err, line)
				}
			}
		}
		if !found {
			t.Errorf("cell %s/%s not on its own line", c.Group, c.Method)
		}
	}
}

func TestAblationDetectors(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs the pipeline repeatedly")
	}
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	cells := AblationDetectors(g)
	if len(cells) != len(DetectorConfigs) {
		t.Fatalf("cells = %d, want %d", len(cells), len(DetectorConfigs))
	}
	for _, c := range cells {
		if c.Group != "detectors" || c.Dataset != "hospital" {
			t.Errorf("cell misfiled: %+v", c)
		}
		if c.Err != "" {
			t.Errorf("%s failed: %s", c.Method, c.Err)
		}
		if !c.NA && (c.F1 < 0 || c.F1 > 1) {
			t.Errorf("%s F1 out of range: %v", c.Method, c.F1)
		}
	}
	// Hospital has a dictionary, so every stack must actually run.
	for _, c := range cells {
		if c.NA {
			t.Errorf("%s should be supported on hospital", c.Method)
		}
	}
	// Flights has no dictionary: the dict stacks report NA.
	fl := datagen.Flights(datagen.Config{Tuples: 200, Seed: 1})
	flCells := AblationDetectors(fl)
	var nas int
	for _, c := range flCells {
		if c.NA {
			nas++
		}
	}
	if nas != 2 {
		t.Errorf("flights NA stacks = %d, want 2 (violations+dict, all)", nas)
	}
}

func TestAblationFeaturizers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation runs the pipeline repeatedly")
	}
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	cells := AblationFeaturizers(g)
	if len(cells) != len(FeaturizerConfigs) {
		t.Fatalf("cells = %d, want %d", len(cells), len(FeaturizerConfigs))
	}
	byName := map[string]AccuracyCell{}
	for _, c := range cells {
		byName[c.Method] = c
		if c.Group != "featurizers" {
			t.Errorf("cell misfiled: %+v", c)
		}
	}
	// Hospital carries no provenance: the source toggle is NA.
	if !byName["no-source"].NA {
		t.Errorf("no-source should be NA on hospital")
	}
	// Flights carries provenance: the toggle runs there.
	fl := datagen.Flights(datagen.Config{Tuples: 200, Seed: 1})
	for _, c := range AblationFeaturizers(fl) {
		if c.Method == "no-source" && c.NA {
			t.Errorf("no-source should run on flights")
		}
	}
	// The toggles must be live: turning featurizers off has to change
	// the scored outcome somewhere (identical cells across all configs
	// would mean the options are ignored).
	distinct := map[[3]float64]bool{}
	for _, c := range cells {
		if c.NA || c.Err != "" {
			continue
		}
		distinct[[3]float64{c.Precision, c.Recall, c.F1}] = true
	}
	if len(distinct) < 2 {
		t.Errorf("featurizer toggles had no effect: %+v", cells)
	}
}

// TestFeaturizerAblationTakesEffect: the no-minimality row zeroes the
// minimality weight, and zero must reach the model — a different program
// (the rule's fixed weight) and different marginals than the full signal
// set, not the default weight silently restored.
func TestFeaturizerAblationTakesEffect(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 1})
	all, _ := featurizerOptions(g, "all")
	noMin, _ := featurizerOptions(g, "no-minimality")
	const rule = "Value?(t, a, d) :- InitValue(t, a, d)  weight = "
	results := make([]*holoclean.Result, 2)
	for i, c := range []struct {
		opts   holoclean.Options
		weight string
	}{{all, "0.5"}, {noMin, "0"}} {
		ex, err := holoclean.New(c.opts).Explain(g.Dirty, g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ex.Program, rule+c.weight+"\n") {
			t.Errorf("MinimalityWeight %v: program lacks %q:\n%s", c.opts.MinimalityWeight, rule+c.weight, ex.Program)
		}
		if results[i], err = holoclean.New(c.opts).Clean(g.Dirty, g.Constraints); err != nil {
			t.Fatal(err)
		}
	}
	if len(results[0].Marginals) == 0 {
		t.Fatal("fixture inferred no cells")
	}
	for c, dist := range results[0].Marginals {
		other := results[1].Marginals[c]
		if len(other) != len(dist) || other[0] != dist[0] {
			return
		}
	}
	t.Error("no-minimality and all inferred identical marginals: the ablation is inert")
}

func TestAccuracyReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full accuracy suite is slow")
	}
	cfg := tinyConfig()
	rep := Accuracy(cfg)
	if !rep.OK || rep.Suite != "accuracy" {
		t.Fatalf("report header: %+v", rep)
	}
	// 4 datasets × 4 methods + 4 × (detector + featurizer configs).
	want := 4*4 + 4*(len(DetectorConfigs)+len(FeaturizerConfigs))
	if len(rep.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), want)
	}
	var hospitalHC *AccuracyCell
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Group == "methods" && c.Dataset == "hospital" && c.Method == "HoloClean" {
			hospitalHC = c
		}
	}
	if hospitalHC == nil || hospitalHC.Err != "" || hospitalHC.F1 <= 0 {
		t.Fatalf("hospital HoloClean cell: %+v", hospitalHC)
	}

	var md bytes.Buffer
	WriteAccuracyMarkdown(&md, rep)
	if !strings.Contains(md.String(), "| hospital |") || !strings.Contains(md.String(), "0.713") {
		t.Errorf("markdown table incomplete:\n%s", md.String())
	}
	var js bytes.Buffer
	if err := WriteAccuracyJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	var back AccuracyReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("artifact JSON invalid: %v", err)
	}
}

func TestPaperEval(t *testing.T) {
	p, r, f, ok := PaperEval("hospital")
	if !ok || p != 1.0 || r != 0.713 || f != 0.832 {
		t.Errorf("hospital paper row = %v/%v/%v ok=%v", p, r, f, ok)
	}
	if _, _, _, ok := PaperEval("flights"); ok {
		t.Errorf("flights paper row should not be pinned (dataset substituted)")
	}
	ap, ar := PaperAverage()
	if ap != 0.90 || ar != 0.77 {
		t.Errorf("paper averages = %v/%v", ap, ar)
	}
}
