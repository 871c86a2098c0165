package holoclean

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/pruning"
	"holoclean/internal/telemetry"
)

// requireIdenticalResults asserts byte-identical repairs and marginals —
// the Session equivalence contract: an incremental Reclean must be
// indistinguishable from a from-scratch Clean of the mutated dataset run
// with the same weights.
func requireIdenticalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !want.Repaired.Equal(got.Repaired) {
		t.Fatalf("%s: repaired datasets differ", label)
	}
	if len(got.Repairs) != len(want.Repairs) {
		t.Fatalf("%s: repair counts differ: got %d, want %d", label, len(got.Repairs), len(want.Repairs))
	}
	for i := range want.Repairs {
		if got.Repairs[i] != want.Repairs[i] {
			t.Fatalf("%s: repair %d differs:\ngot  %+v\nwant %+v", label, i, got.Repairs[i], want.Repairs[i])
		}
	}
	if len(got.Marginals) != len(want.Marginals) {
		t.Fatalf("%s: marginal counts differ: got %d, want %d", label, len(got.Marginals), len(want.Marginals))
	}
	for c, wd := range want.Marginals {
		gd := got.Marginals[c]
		if len(gd) != len(wd) {
			t.Fatalf("%s: marginal of %v has support %d, want %d", label, c, len(gd), len(wd))
		}
		for i := range wd {
			if gd[i] != wd[i] {
				t.Fatalf("%s: marginal of %v differs at %d: %v vs %v", label, c, i, gd[i], wd[i])
			}
		}
	}
}

// mutateSession applies a ~frac tuple mutation: each picked tuple gets
// one attribute from attrs overwritten with a value drawn from another
// tuple's same attribute (the cross-duplication noise the hospital
// generator uses).
func mutateSession(t *testing.T, s *Session, rng *rand.Rand, frac float64, attrs []int) int {
	t.Helper()
	n := s.NumTuples()
	count := int(float64(n)*frac + 0.5)
	if count < 1 {
		count = 1
	}
	ds := s.Dataset()
	for k := 0; k < count; k++ {
		tup := rng.Intn(n)
		row := make([]string, ds.NumAttrs())
		for a := range row {
			row[a] = ds.GetString(tup, a)
		}
		a := attrs[rng.Intn(len(attrs))]
		row[a] = ds.GetString(rng.Intn(n), a)
		if _, err := s.Upsert(tup, row); err != nil {
			t.Fatal(err)
		}
	}
	return count
}

// sessionFixture builds a multi-group conflicted dataset whose violations
// split into many components. It deliberately has no constant column:
// appending or deleting a tuple would change Pr[· | constant] for every
// cell and correctly invalidate the whole model (see ARCHITECTURE.md),
// which would defeat the locality this fixture is meant to exercise.
func sessionFixture(groups int) (*Dataset, []*Constraint) {
	ds := NewDataset([]string{"Key", "Val"})
	for g := 0; g < groups; g++ {
		k := fmt.Sprintf("k%03d", g)
		good := fmt.Sprintf("v%03d", g)
		for i := 0; i < 4; i++ {
			ds.Append([]string{k, good})
		}
		ds.Append([]string{k, fmt.Sprintf("bad%03d", g)})
	}
	return ds, FD("fd", []string{"Key"}, []string{"Val"})
}

// TestSessionDeleteOutOfRange exercises mutator validation.
func TestSessionMutatorValidation(t *testing.T) {
	ds, cs := sessionFixture(2)
	s, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(99); err == nil {
		t.Errorf("Delete out of range should fail")
	}
	if _, err := s.Upsert(0, []string{"just-one"}); err == nil {
		t.Errorf("Upsert with wrong arity should fail")
	}
	if _, err := s.Upsert(77, []string{"a", "b"}); err == nil {
		t.Errorf("Upsert far out of range should fail")
	}
}

// TestResolveGibbsZeroBurnIn is the regression test for the burn-in
// coercion bug: an explicit zero burn-in must mean zero sweeps discarded,
// not silently fall back to the default 10.
func TestResolveGibbsZeroBurnIn(t *testing.T) {
	o := DefaultOptions()
	o.GibbsBurnIn = 0
	if burn, _ := resolveGibbs(o); burn != 0 {
		t.Errorf("explicit zero burn-in resolved to %d, want 0", burn)
	}
	o.GibbsBurnIn = -3
	if burn, _ := resolveGibbs(o); burn != 0 {
		t.Errorf("negative burn-in resolved to %d, want 0 (clamped)", burn)
	}
	o.GibbsBurnIn = 7
	o.GibbsSamples = 0
	burn, samples := resolveGibbs(o)
	if burn != 7 || samples != 50 {
		t.Errorf("resolveGibbs(7, 0) = (%d, %d), want (7, 50)", burn, samples)
	}
}

// TestParallelVarSeedsMixedEvidence is the regression test for the
// VarSeed indexing bug: on a grounded graph holding both evidence and
// query variables, seeds must be indexed by graph variable id (evidence
// entries zero, query entries the identity seed of their cell).
func TestParallelVarSeedsMixedEvidence(t *testing.T) {
	ds := NewDataset([]string{"A", "B"})
	ds.Append([]string{"x", "1"})
	ds.Append([]string{"x", "2"})
	ds.Append([]string{"x", "1"})
	noisy := []dataset.Cell{{Tuple: 1, Attr: 1}}
	one := ds.Dict().Intern("1")
	two := ds.Dict().Intern("2")
	db := &ddlog.Database{
		DS: ds,
		Domains: &pruning.Domains{
			Cells:      noisy,
			Candidates: [][]dataset.Value{{one, two}},
		},
		// Evidence variables precede nothing in the domain list but are
		// appended after query variables during grounding, exercising the
		// mixed layout.
		Evidence:        []dataset.Cell{{Tuple: 0, Attr: 1}, {Tuple: 2, Attr: 1}},
		EvidenceDomains: [][]dataset.Value{{one, two}, {one, two}},
	}
	prog := &ddlog.Program{}
	prog.Add(&ddlog.Rule{Kind: ddlog.RandomVariables, Name: "variables"})
	prog.Add(&ddlog.Rule{Kind: ddlog.MinimalityFactors, Name: "minimality", FixedWeight: 0.5})
	g, err := ddlog.Ground(db, prog, ddlog.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats.EvidenceVars == 0 || g.Stats.QueryVars == 0 {
		t.Fatalf("fixture did not produce a mixed graph: %+v", g.Stats)
	}
	seeds := cellVarSeeds(g, 1, ds.NumAttrs())
	if len(seeds) != len(g.Graph.Vars) {
		t.Fatalf("seed slice len %d, want one per variable %d", len(seeds), len(g.Graph.Vars))
	}
	for vi := range g.Graph.Vars {
		if g.Graph.Vars[vi].Evidence {
			if seeds[vi] != 0 {
				t.Errorf("evidence variable %d got seed %d, want 0", vi, seeds[vi])
			}
			continue
		}
		want := chainSeed(1, g.Cells[vi], ds.NumAttrs())
		if seeds[vi] != want {
			t.Errorf("query variable %d seeded %d, want identity seed %d", vi, seeds[vi], want)
		}
	}
}

// TestPhaseTimesWithinTotal is the regression test for the timing
// mis-attribution: with a single worker, the per-phase clocks (which now
// include shared-index construction in CompileTime) must sum to at most
// the total wall clock.
func TestPhaseTimesWithinTotal(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 3})
	opts := DefaultOptions()
	opts.Workers = 1
	res, err := New(opts).Clean(g.Dirty, g.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	phases := s.DetectTime + s.CompileTime + s.LearnTime + s.InferTime
	if phases > s.TotalTime {
		t.Errorf("phase times sum to %v > TotalTime %v (Detect %v Compile %v Learn %v Infer %v)",
			phases, s.TotalTime, s.DetectTime, s.CompileTime, s.LearnTime, s.InferTime)
	}
	if s.CompileTime <= 0 {
		t.Errorf("CompileTime not populated")
	}
}

// TestStageTelemetryAgreesAcrossPasses pins the one-clock contract: a full
// and an incremental pass emit the same stage set (learn only when
// weights were learned), and the total span is the very duration
// RunStats.TotalTime reports — delta pre-work and session adoption
// included.
func TestStageTelemetryAgreesAcrossPasses(t *testing.T) {
	reg := telemetry.NewRegistry()
	ds, cs := sessionFixture(10)
	opts := DefaultOptions()
	opts.Tracer = telemetry.NewTracer(reg, "stage_seconds", "per-stage durations")
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Clean()
	if err != nil {
		t.Fatal(err)
	}
	s.Upsert(3, []string{"k001", "bad-y"})
	second, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for stage, want := range map[string]int{"detect": 2, "stats": 2, "ground": 2, "infer": 2, "total": 2, "learn": 1} {
		if line := fmt.Sprintf("stage_seconds_count{stage=%q} %d\n", stage, want); !strings.Contains(scrape.String(), line) {
			t.Errorf("scrape lacks %q", line)
		}
	}
	var sum float64
	if _, rest, ok := strings.Cut(scrape.String(), `stage_seconds_sum{stage="total"} `); !ok {
		t.Fatalf("no total sum in scrape:\n%s", scrape.String())
	} else if _, err := fmt.Sscan(rest, &sum); err != nil {
		t.Fatal(err)
	}
	want := first.Stats.TotalTime.Seconds() + second.Stats.TotalTime.Seconds()
	if math.Abs(sum-want) > 1e-9*want {
		t.Errorf("total span sum %v s, RunStats.TotalTime sum %v s", sum, want)
	}
}

// TestInertCellsAgreeAcrossPasses: RunStats.InertCells counts the noisy
// cells pruning left a single candidate — their marginal is that candidate
// at probability exactly 1 — and is taken from the full domains, so Explain,
// a full Clean and an incremental Reclean (which under DC Feats re-executes
// only a few shards) report the same number for the same relation, under
// both inference rules.
func TestInertCellsAgreeAcrossPasses(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 400, Seed: 5})
	for _, variant := range []Variant{VariantDCFeats, VariantDCFactors} {
		opts := DefaultOptions()
		opts.Variant = variant
		s, err := NewSession(g.Dirty, g.Constraints, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Clean(); err != nil {
			t.Fatal(err)
		}
		mutateSession(t, s, rand.New(rand.NewSource(1)), 0.01, []int{0, 1, 9, 14, 15})
		incr, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		if incr.Stats.ShardsReused == 0 && variant == VariantDCFeats {
			t.Fatalf("%s: fixture reused no shard", variant.Name())
		}
		refOpts := opts
		refOpts.InitialWeights = s.Weights()
		full, err := New(refOpts).Clean(s.Dataset(), g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := New(refOpts).Explain(s.Dataset(), g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		single := 0
		for c, dist := range full.Marginals {
			if len(dist) == 1 {
				single++
				if dist[0].P != 1 {
					t.Errorf("%s: single-candidate cell %v has probability %v, want exactly 1", variant.Name(), c, dist[0].P)
				}
			}
		}
		if n := full.Stats.InertCells; n != single || n == 0 || n >= full.Stats.NoisyCells {
			t.Errorf("%s: InertCells = %d of %d noisy, %d marginals have one candidate", variant.Name(), n, full.Stats.NoisyCells, single)
		}
		if incr.Stats.InertCells != full.Stats.InertCells || ex.InertCells != full.Stats.InertCells {
			t.Errorf("%s: InertCells: reclean %d, explain %d, full clean %d", variant.Name(), incr.Stats.InertCells, ex.InertCells, full.Stats.InertCells)
		}
	}
}

// TestSessionReusesShardsUnderProvenanceColumn: a provenance column alone
// makes nothing relation-wide. With the source features off, no featurizer
// reads the sources, so a one-tuple upsert over Flights must reuse shards
// like any other relation; with the fusion featurizer wired, the same delta
// does move every source's accuracy and everything re-executes. Either way
// the Reclean matches a full Clean byte for byte.
func TestSessionReusesShardsUnderProvenanceColumn(t *testing.T) {
	g := datagen.Flights(datagen.Config{Tuples: 600, Seed: 3})
	if !g.Dirty.HasSources() {
		t.Fatal("Flights lost its provenance column")
	}
	for _, sourceFeatures := range []bool{false, true} {
		opts := DefaultOptions()
		opts.DisableSourceFeatures = !sourceFeatures
		s, err := NewSession(g.Dirty, g.Constraints, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Clean(); err != nil {
			t.Fatal(err)
		}
		mutateSession(t, s, rand.New(rand.NewSource(1)), 0, []int{2}) // one tuple's scheduled departure
		incr, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		refOpts := opts
		refOpts.InitialWeights = s.Weights()
		ref, err := New(refOpts).Clean(s.Dataset(), g.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, fmt.Sprintf("flights, source features %v", sourceFeatures), incr, ref)
		if reused := incr.Stats.ShardsReused > 0; reused == sourceFeatures {
			t.Errorf("source features %v: ShardsReused = %d of %d shards", sourceFeatures, incr.Stats.ShardsReused, ref.Stats.Shards)
		}
	}
}

// TestStatsWeightsAcrossPasses pins RunStats.Weights — the distinct tying
// keys a pass's graphs name, the broadcast weight map included — for a
// Clean and two Recleans (an in-place 1% mutation, then an append plus a
// swap-delete) of one hospital relation, under both inference rules. The
// figures were recorded when the count was taken from a per-pass set of
// every key; counting the broadcast map plus the keys it lacks must give
// the same numbers.
func TestStatsWeightsAcrossPasses(t *testing.T) {
	g := datagen.Hospital(datagen.Config{Tuples: 600, Seed: 7})
	for _, tc := range []struct {
		name    string
		variant Variant
		want    [3]int
	}{
		{"DC Feats", VariantDCFeats, [3]int{16979, 17009, 17009}},
		{"DC Factors", VariantDCFactors, [3]int{16954, 16982, 16982}},
	} {
		opts := DefaultOptions()
		opts.Variant = tc.variant
		s, err := NewSession(g.Dirty, g.Constraints, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got [3]int
		res, err := s.Clean()
		if err != nil {
			t.Fatal(err)
		}
		got[0] = res.Stats.Weights
		mutateSession(t, s, rand.New(rand.NewSource(3)), 0.01, []int{0, 1, 9, 14, 15})
		if res, err = s.Reclean(); err != nil {
			t.Fatal(err)
		}
		got[1] = res.Stats.Weights
		ds := s.Dataset()
		row := make([]string, ds.NumAttrs())
		for a := range row {
			row[a] = ds.GetString(17, a)
		}
		row[14] = ds.GetString(18, 14)
		if _, err := s.Upsert(-1, row); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(42); err != nil {
			t.Fatal(err)
		}
		if res, err = s.Reclean(); err != nil {
			t.Fatal(err)
		}
		got[2] = res.Stats.Weights
		if got != tc.want {
			t.Errorf("%s: Stats.Weights of Clean, Reclean, Reclean = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOutcomesKeptOnlyWhereRecleanReadsThem: a pass keeps per-cell
// outcomes only when a session adopts it and its next Reclean can carry
// them forward (pass.carriesOutcomes). Cleaner.Clean keeps none, nor does a
// session under DC Factors or with source fusion, whose Reclean re-executes
// the whole plan; a DC Feats session keeps them and reuses shards. A kept
// table has one slot per domain cell, filled exactly where the cell has a
// candidate (a query variable).
func TestOutcomesKeptOnlyWhereRecleanReadsThem(t *testing.T) {
	hospital := datagen.Hospital(datagen.Config{Tuples: 200, Seed: 5})
	flights := datagen.Flights(datagen.Config{Tuples: 200, Seed: 5})
	for _, tc := range []struct {
		name    string
		g       *datagen.Generated
		variant Variant
		keeps   bool
	}{
		{"hospital/feats", hospital, VariantDCFeats, true},
		{"hospital/factors", hospital, VariantDCFactors, false},
		{"flights/fusion", flights, VariantDCFeats, false},
	} {
		opts := DefaultOptions()
		opts.Variant = tc.variant
		p := newPass(opts, tc.g.Dirty, tc.g.Constraints, nil)
		if _, err := p.run(nil); err != nil {
			t.Fatal(err)
		}
		if p.outcomes != nil {
			t.Errorf("%s: a Cleaner pass kept %d outcomes", tc.name, len(p.outcomes))
		}
		s, err := NewSession(tc.g.Dirty, tc.g.Constraints, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Clean(); err != nil {
			t.Fatal(err)
		}
		mutateSession(t, s, rand.New(rand.NewSource(1)), 0, []int{1})
		res, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		if kept := s.prev.outcomes != nil; kept != tc.keeps {
			t.Errorf("%s: session keeps outcomes = %v, want %v", tc.name, kept, tc.keeps)
		}
		dom := s.prev.domains
		if tc.keeps && len(s.prev.outcomes) != len(dom.Cells) {
			t.Fatalf("%s: kept %d outcome slots for %d domain cells", tc.name, len(s.prev.outcomes), len(dom.Cells))
		}
		for i, out := range s.prev.outcomes {
			if filled, cands := out.dist != nil, len(dom.Candidates[i]); filled != (cands > 0) {
				t.Errorf("%s: slot of %v filled = %v, but its cell has %d candidates", tc.name, dom.Cells[i], filled, cands)
			}
		}
		if reused := res.Stats.ShardsReused > 0; reused != tc.keeps {
			t.Errorf("%s: ShardsReused = %d", tc.name, res.Stats.ShardsReused)
		}
	}
}

// TestOneReasonMarksTuple pins the dirty marks the session property never
// needs alone. Both fixtures have single-tuple constraints (no join hop),
// no co-occurrence features (no statistics mark) and the full domain of
// B as every flagged cell's candidates, so the marks left are the row and
// the domain reasons:
//   - row: an in-place upsert moves tuple 0's flagged B from one candidate
//     to another, which moves its minimality prior and no domain;
//   - entered: an upsert takes the fourth "Chicagoo" away, so the other
//     three become rare and the outlier detector flags them: their cells
//     enter the query domains while their rows stay as they were, and
//     there is no outcome of theirs to carry forward. A is a key, so the
//     conditional outlier detector, which skips siblings seen once, flags
//     nothing.
//
// The pass must mark exactly the upserted tuple and those whose cells
// entered, and the Reclean must equal a fresh Clean.
func TestOneReasonMarksTuple(t *testing.T) {
	rows := func(n int, key string, vals ...string) [][]string {
		out := make([][]string, n)
		for i := range out {
			out[i] = []string{fmt.Sprint(key, i), vals[i%len(vals)]}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		rows     [][]string
		dcs      string
		outliers bool
		upsert   int
		row      []string
		entered  []Cell
	}{
		{"row", rows(20, "t", "bad1", "bad2", "ok"), "c1: t1&EQ(t1.B,\"bad1\")\nc2: t1&EQ(t1.B,\"bad2\")",
			false, 0, []string{"t0", "bad2"}, nil},
		{"entered", append(rows(30, "c", "Chicago"), rows(4, "r", "Chicagoo")...), `c1: t1&EQ(t1.A,"none")`,
			true, 33, []string{"r3", "Chicago"}, []Cell{{Tuple: 30, Attr: 1}, {Tuple: 31, Attr: 1}, {Tuple: 32, Attr: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := NewDataset([]string{"A", "B"})
			for _, row := range tc.rows {
				ds.Append(row)
			}
			cs, err := ParseConstraints(strings.NewReader(tc.dcs))
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.DisableCooccurFeatures, opts.FullDomain, opts.OutlierDetection = true, true, tc.outliers
			// staged returns a fresh session after Clean with the upsert pending.
			staged := func() *Session {
				s, err := NewSession(ds, cs, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Clean(); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Upsert(tc.upsert, tc.row); err != nil {
					t.Fatal(err)
				}
				return s
			}

			s := staged()
			p := s.nextPass(s.prev, s.prev.weights)
			if err := p.compile(); err != nil {
				t.Fatal(err)
			}
			var entered []Cell
			for i, c := range p.domains.Cells {
				if j := s.prev.domains.Index(c); j < 0 {
					entered = append(entered, c)
				} else if !slices.Equal(p.domains.Candidates[i], s.prev.domains.Candidates[j]) {
					t.Fatalf("fixture: the candidates of %v moved", c)
				}
			}
			if !slices.Equal(entered, tc.entered) || len(p.domains.Cells) != len(s.prev.domains.Cells)+len(entered) {
				t.Fatalf("fixture: cells %v entered the query domains (want %v), and %d left", entered, tc.entered,
					len(s.prev.domains.Cells)+len(entered)-len(p.domains.Cells))
			}
			want := map[int]bool{tc.upsert: true}
			for _, c := range tc.entered {
				want[c.Tuple] = true
			}
			if !maps.Equal(p.dirty, want) {
				t.Errorf("dirty = %v, want %v", p.dirty, want)
			}

			s = staged()
			res, err := s.Reclean()
			if err != nil {
				t.Fatal(err)
			}
			refOpts := opts
			refOpts.InitialWeights = s.Weights()
			ref, err := New(refOpts).Clean(s.Dataset(), cs)
			if err != nil {
				t.Fatal(err)
			}
			requireIdenticalResults(t, "reclean", res, ref)
		})
	}
}
