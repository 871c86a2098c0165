package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 75); !near(got, 7.75) {
		t.Errorf("p75 = %v, want 7.75", got)
	}
	if got := percentile([]float64{3}, 95); got != 3 {
		t.Errorf("p95 of one sample = %v, want 3", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	slower := []float64{120, 121, 119, 120, 120, 121, 119, 120, 120, 120}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, "ok"},
		{"slower latency", steady, slower, false, "regressed"},
		{"faster latency", slower, steady, false, "ok"},
		{"lower throughput", slower, steady, true, "regressed"},
		{"too noisy to tell", steady, noisy, false, "unresolved"},
	} {
		if _, _, got := judge(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A slow phase of the host that covers up to two thirds of a run must
// not move the timing metrics.
func TestQuietThirdIgnoresSlowPhase(t *testing.T) {
	t0 := time.Unix(0, 0)
	run := func(slowFrom, slowTo int) timings {
		var marks []mark
		var at []time.Time
		var lat []float64
		var cpu time.Duration
		for i := 0; i <= 9; i++ { // nine 2 s slices of four ops each
			marks = append(marks, mark{at: t0.Add(time.Duration(i) * sliceLen), cpu: cpu})
			f := 1.0
			if i >= slowFrom && i < slowTo {
				f = 1.3
			}
			for k := 0; k < 4 && i < 9; k++ {
				at = append(at, marks[i].at.Add(time.Duration(k+1)*sliceLen/4-time.Millisecond))
				lat = append(lat, f*float64(100+k))
			}
			cpu += time.Duration(f * float64(400*time.Millisecond))
		}
		slices := cutSlices(marks, at, lat)
		if len(slices) != 9 || len(slices[8].LatMS) != 4 {
			t.Fatalf("cutSlices: %d slices, %d ops in the last, want 9 and 4", len(slices), len(slices[8].LatMS))
		}
		return summarise(quietThird(slices), 75)
	}
	quiet, noisy := run(0, 0), run(2, 8)
	if quiet.ops != 12 || noisy != quiet {
		t.Errorf("six slow slices of nine moved the result: %+v, want %+v over 12 ops", noisy, quiet)
	}
	if !near(quiet.p50MS, 101.5) || !near(quiet.opsPerS, 2) || !near(quiet.cpuPer, 100) {
		t.Errorf("quiet run = %+v, want p50 101.5 ms, 2 ops/s, 100 ms CPU per op", quiet)
	}
	if all := run(0, 9); !near(all.p50MS, 1.3*101.5) {
		t.Errorf("a run that is slow throughout reports p50 %v, want it as measured, %v", all.p50MS, 1.3*101.5)
	}
	if got := quietMedian([]float64{5, 1, 4, 2, 3}); !near(got, 1.5) {
		t.Errorf("quietMedian = %v, want 1.5, the median of the two fastest of five", got)
	}
	if got := quietMedian([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quietMedian = %v, want 1, the fastest of three", got)
	}
}

// Slices the host stole time from count neither towards the metrics nor
// towards the length of the timed phase.
func TestStolenSlicesDoNotCount(t *testing.T) {
	fast := slice{LatMS: []float64{50}, WallS: 2, CPUMS: 50, StolenS: 1} // stolen, and by chance the fastest
	a := slice{LatMS: []float64{100}, WallS: 2, CPUMS: 100, StolenS: 0.02}
	b := slice{LatMS: []float64{110}, WallS: 2, CPUMS: 110}
	if kept := quietThird([]slice{fast, b, a, {WallS: 2}}); len(kept) != 1 || kept[0].LatMS[0] != 100 {
		t.Errorf("quietThird kept %+v, want the slice at 100 ms: the stolen and the empty one set aside", kept)
	}
	if kept := quietThird([]slice{fast}); len(kept) != 1 {
		t.Errorf("a run of stolen slices only reports nothing; want what it has")
	}
	clock := newPhaseClock(4)
	for _, s := range []slice{a, fast, fast} {
		clock.add(s)
	}
	if clock.over() {
		t.Errorf("the clock ran out after 2 s of slices that count and 4 s of stolen ones")
	}
	if clock.add(b); !clock.over() {
		t.Errorf("the clock did not run out after 4 s of slices that count")
	}
	clock = newPhaseClock(0.001)
	time.Sleep(time.Duration(maxStretch+1) * time.Millisecond)
	if !clock.over() {
		t.Errorf("a phase that only meets stolen slices must end after maxStretch times its length")
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := newRecorder("w")
	r.nextOp()
	outer := r.begin("holoclean.reclean")
	r.time("stats.apply", func() { time.Sleep(5 * time.Millisecond) })
	time.Sleep(5 * time.Millisecond)
	total := outer.end()
	outer.report(stage{"gibbs.reported_infer", 2 * time.Millisecond})

	self := r.selfTimes()
	if got, want := self["holoclean.reclean"], total-r.spans[1].dur()-2*time.Millisecond; (got - want).Abs() > time.Microsecond {
		t.Errorf("self time of the outer span = %v, want %v (span minus measured and reported children)", got, want)
	}
	if self["stats.apply"] < 5*time.Millisecond {
		t.Errorf("leaf self time = %v, want its whole duration", self["stats.apply"])
	}
	for _, s := range r.spans[1:] {
		if s.Parent != r.spans[0].ID || s.Op != 1 {
			t.Errorf("span %s: parent %d op %d, want parent %d op 1", s.Name, s.Parent, s.Op, r.spans[0].ID)
		}
	}
	if layerOf("gibbs.reported_infer") != "gibbs" {
		t.Errorf("layerOf did not cut at the first dot")
	}
	path, err := r.flush(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	b, _ := os.ReadFile(path)
	if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) != 3 || tf.Workload != "w" {
		t.Errorf("flushed trace does not read back: %v, %d spans", err, len(tf.Spans))
	}
}

// requestStream renders the first n iterations of a tenant's stream,
// feedback rounds included.
func requestStream(t *testing.T, w workload, seed int64, n int) [][]byte {
	t.Helper()
	in, err := makeInputs(w, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(w, in, seed, 0)
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, body(sc.nextDelta()))
		if sc.feedbackDue() {
			out = append(out, body(sc.nextFeedback()))
		}
	}
	return out
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := requestStream(t, w, 7, 2*feedbackEvery)
		b := requestStream(t, w, 7, 2*feedbackEvery)
		c := requestStream(t, w, 8, 2*feedbackEvery)
		if len(a) != 2*feedbackEvery+2 {
			t.Fatalf("%s: %d requests, want %d deltas and 2 feedback rounds", w.name, len(a), 2*feedbackEvery)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed produced different request bodies", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds produced the same request bodies", w.name)
		}
	}
}

// The mirror must stay row-aligned with a relation the ops are applied to
// through the dataset package's own Append, SetString and DeleteSwap —
// and the stream must be stationary: the relation returns to its size.
func TestMirrorTracksDataset(t *testing.T) {
	for _, w := range workloads {
		in, err := makeInputs(w, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScript(w, in, 3, 0)
		ds := datasetOf(sc.attrs, sc.dirty)
		for i := 0; i < 40; i++ {
			applyOps(ds, sc.nextDelta().Ops)
			if !reflect.DeepEqual(rowsOf(ds), sc.dirty) {
				t.Fatalf("%s: mirror and dataset differ after batch %d", w.name, i+1)
			}
			if len(sc.truth) != len(sc.dirty) {
				t.Fatalf("%s: truth mirror has %d rows, dirty %d", w.name, len(sc.truth), len(sc.dirty))
			}
		}
		want := sc.n0
		if w.kind == kindWide {
			want += revertLag * batchRows
		}
		if len(sc.dirty) != want {
			t.Errorf("%s: %d rows after 40 batches, want a steady %d", w.name, len(sc.dirty), want)
		}
		for id, i := range sc.pos {
			if sc.ids[i] != id {
				t.Fatalf("%s: row id %d is not at its recorded position %d", w.name, id, i)
			}
		}
	}
}

// BENCHMARK.json and the metric tables must name the same things.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []benchmarkMetric, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(table))
			return
		}
		for i, m := range file {
			d := table[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if m.Name != d.name || m.Unit != d.unit || m.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s, %s], the program %s [%s, %s]",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke builds the benchmark and the daemon and runs every workload
// end to end and traced, a few ops each, with no thresholds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and runs all four workloads")
	}
	bin := t.TempDir()
	for target, pkg := range map[string]string{"bench": ".", "holocleand": "holoclean/cmd/holocleand"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, target), pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(filepath.Join(bin, "bench"), "-smoke", "-workload", w.name, "-trace", trace)
			cmd.Dir = ".." // the checkout root, where BENCHMARK.json is
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s -trace %s: %v\n%s", w.name, trace, err, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				t.Fatalf("%s -trace %s: last line is not a result: %v", w.name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if want := len(wanted(trace == "1")); len(line.Metrics) != want {
				t.Errorf("%s -trace %s: %d metrics, want %d", w.name, trace, len(line.Metrics), want)
			}
		}
	}
}
