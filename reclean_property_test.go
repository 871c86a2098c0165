package holoclean

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"holoclean/internal/datagen"
	"holoclean/internal/dc"
)

// sessionModel is the plain-data model of a Session: the relation as
// strings (with its provenance column, when it has one), the confirmed
// cells in confirmation order, the weights every pass infers with and the
// reclean counter. Its methods state what each Session operation does to
// that data; the reference a session must equal after every pass is a
// from-scratch CleanWithFeedback of the model.
type sessionModel struct {
	rows      [][]string
	sources   []string // nil without a provenance column
	confirmed []Feedback
	weights   map[string]float64
	recleans  int
}

func newSessionModel(ds *Dataset) *sessionModel {
	m := &sessionModel{rows: make([][]string, ds.NumTuples())}
	for t := range m.rows {
		m.rows[t] = make([]string, ds.NumAttrs())
		for a := range m.rows[t] {
			m.rows[t][a] = ds.GetString(t, a)
		}
		if ds.HasSources() {
			m.sources = append(m.sources, ds.Source(t))
		}
	}
	return m
}

// upsert overwrites tuple t; a confirmation the new row contradicts is
// superseded.
func (m *sessionModel) upsert(t int, row []string) {
	m.rows[t] = row
	m.confirmed = slices.DeleteFunc(m.confirmed, func(f Feedback) bool {
		return f.Cell.Tuple == t && row[f.Cell.Attr] != f.Value
	})
}

// append adds a tuple of unknown provenance.
func (m *sessionModel) append(row []string) {
	m.rows = append(m.rows, row)
	if m.sources != nil {
		m.sources = append(m.sources, "")
	}
}

// delete moves the last tuple into slot t; the deleted tuple's
// confirmations die with it and the moved tuple's follow it.
func (m *sessionModel) delete(t int) {
	last := len(m.rows) - 1
	m.rows[t], m.rows = m.rows[last], m.rows[:last]
	if m.sources != nil {
		m.sources[t], m.sources = m.sources[last], m.sources[:last]
	}
	kept := m.confirmed[:0]
	for _, f := range m.confirmed {
		switch f.Cell.Tuple {
		case t:
			continue
		case last:
			f.Cell.Tuple = t
		}
		kept = append(kept, f)
	}
	m.confirmed = kept
}

// confirm writes the confirmed values and appends them to the confirmed
// list.
func (m *sessionModel) confirm(fb []Feedback) {
	for _, f := range fb {
		m.rows[f.Cell.Tuple][f.Cell.Attr] = f.Value
	}
	m.confirmed = append(m.confirmed, fb...)
}

// dataset builds the model relation over like's value dictionary: a
// pass orders candidates by value id, so the reference must intern every
// string to the id the session's relation holds.
func (m *sessionModel) dataset(like *Dataset) *Dataset {
	ds := like.Clone()
	for ds.NumTuples() > 0 {
		ds.DeleteSwap(ds.NumTuples() - 1)
	}
	for t, row := range m.rows {
		ds.Append(row)
		if m.sources != nil {
			ds.SetSource(t, m.sources[t])
		}
	}
	return ds
}

// modelOp is one step of a model script. Kind is "set" (Upsert of tuple
// Tuple with attribute Attr set to Value), "append" (Upsert of Row at -1),
// "delete", "feedback" (Feedback of FB, which recleans), "reclean",
// "snapshot" (Snapshot → RestoreSession; the restored copy follows the
// live session through the next step, then takes its place) or "fold"
// (Snapshot → StageSession; the staged copy stages the next Steps steps'
// rounds with Stage, runs the one pass they owe, and takes the live
// session's place).
type modelOp struct {
	Kind  string
	Tuple int
	Attr  int
	Value string
	Row   []string
	FB    []Feedback
	Steps int
}

// modelScript is one run of TestSessionMatchesModel: a configuration, its
// worker count and relearn period, and the steps after the initial Clean.
type modelScript struct {
	Config       string
	Workers      int
	RelearnEvery int
	Seed         int64
	Steps        [][]modelOp
}

// String renders the script as a Go statement that replays it.
func (sc *modelScript) String() string {
	return strings.NewReplacer("holoclean.", "", "dataset.Cell{", "Cell{").Replace(fmt.Sprintf("modelReplay = &%#v", *sc))
}

// modelReplay, set by hand to the statement a failing run of
// TestSessionMatchesModel logs, makes the test run that one script.
var modelReplay *modelScript

// modelConfig is one session configuration of TestSessionMatchesModel:
// setup generates its relation and sets its options. reuses marks DC Feats
// without fusion, the regime that carries outcomes forward; every other
// configuration re-executes its whole plan.
type modelConfig struct {
	name   string
	setup  func(o *Options) *datagen.Generated
	reuses bool
}

var modelConfigs = []modelConfig{
	{"hospital", func(*Options) *datagen.Generated { return modelHospital(200) }, true},
	{"hospital+outliers", func(o *Options) *datagen.Generated {
		o.OutlierDetection = true
		return modelHospital(200)
	}, true},
	{"hospital/factors", func(o *Options) *datagen.Generated { return modelFactors(o, 0) }, false},
	{"hospital/factors+split", func(o *Options) *datagen.Generated { return modelFactors(o, 12) }, false},
	{"food", func(o *Options) *datagen.Generated {
		g := datagen.Food(datagen.Config{Tuples: 300, Seed: 5})
		o.Dictionaries, o.MatchDependencies = g.Dictionaries, g.MatchDeps
		return g
	}, true},
	{"flights", func(*Options) *datagen.Generated { return datagen.Flights(datagen.Config{Tuples: 300, Seed: 5}) }, false},
	{"hospital/no-cooccur", func(o *Options) *datagen.Generated {
		o.DisableCooccurFeatures = true
		return modelHospital(200)
	}, true},
}

func modelHospital(n int) *datagen.Generated {
	return datagen.Hospital(datagen.Config{Tuples: n, Seed: 5})
}

// modelFactors sets DC Factors with a small sampling budget (the contract
// holds for any budget) and the given component cap, over 100 hospital
// rows.
func modelFactors(o *Options, maxComponentCells int) *datagen.Generated {
	o.Variant, o.MaxComponentCells = VariantDCFactors, maxComponentCells
	o.GibbsBurnIn, o.GibbsSamples = 2, 10
	return modelHospital(100)
}

// foldRelearns counts, over every script TestSessionMatchesModel runs,
// the relearns a staged copy ran inside a fold.
var foldRelearns atomic.Int64

// TestSessionMatchesModel is the session contract as one model-based
// property: on seven configurations — DC Feats with and without outlier
// detection, DC Factors with and without component splitting, food with
// its dictionaries and match dependencies, flights with source fusion, DC
// Feats without co-occurrence features (where no statistic marks a tuple
// dirty, yet pruning still reads the raw statistics, so a delta elsewhere
// moves an untouched cell's candidates) — at one and three workers, a
// seeded script of typo and cross-copy upserts, appends, deletes, feedback
// mixed with deletes, no-op recleans, snapshot/restore round trips and a
// fold (the next one to four steps staged onto a decoded snapshot, then
// one pass) drives a Session, and after every pass the session equals a
// from-scratch CleanWithFeedback of the model under the model's weights
// (see modelRun.check for the rest of what a pass must satisfy).
// RelearnEvery rotates over 0, 2 and 3 with the seed and the
// configuration, so every value runs under -short too, which runs one
// seed per configuration; the full mode runs six, and requires some fold
// to cross a relearn.
func TestSessionMatchesModel(t *testing.T) {
	if sc := modelReplay; sc != nil {
		for _, cfg := range modelConfigs {
			if cfg.name == sc.Config {
				runModelScript(t, cfg, &modelScript{Config: sc.Config, Workers: sc.Workers, RelearnEvery: sc.RelearnEvery, Seed: sc.Seed}, sc.Steps)
				return
			}
		}
		t.Fatalf("no configuration %q", sc.Config)
	}
	seeds := 6
	if testing.Short() {
		seeds = 1
	} else {
		foldRelearns.Store(0)
		t.Cleanup(func() { // after the parallel subtests
			if !t.Failed() && foldRelearns.Load() == 0 {
				t.Error("no fold staged a round that relearned")
			}
		})
	}
	for ci, cfg := range modelConfigs {
		for _, workers := range []int{1, 3} {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				sc := &modelScript{Config: cfg.name, Workers: workers, RelearnEvery: []int{0, 2, 3}[(int(seed)+ci)%3], Seed: seed}
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", cfg.name, workers, seed), func(t *testing.T) {
					t.Parallel()
					runModelScript(t, cfg, sc, nil)
				})
			}
		}
	}
}

// modelRun drives one script through a live session and the model.
type modelRun struct {
	t      *testing.T
	cfg    modelConfig
	opts   Options
	cs     []*Constraint
	rng    *rand.Rand
	m      *sessionModel
	s      *Session
	shadow *Session // a restored copy following s through one step
	last   *Result  // the live session's last result
	// staged is a decoded copy staging the rounds of fold more steps
	// without their passes; owes says whether it owes one, and relearned
	// is its last relearn's result when it does not.
	staged    *Session
	fold      int
	owes      bool
	relearned *Result
	script    *modelScript
	// constrained lists the attributes a constraint references.
	constrained []int
	reused      int // shards carried forward over the script
	split       int // sub-shards executed over the script
}

// runModelScript runs steps, or a generated script of ten steps when
// steps is nil, logging the script so far as a replay statement if the
// run fails.
func runModelScript(t *testing.T, cfg modelConfig, sc *modelScript, steps [][]modelOp) {
	opts := DefaultOptions()
	g := cfg.setup(&opts)
	opts.Workers, opts.RelearnEvery = sc.Workers, sc.RelearnEvery
	s, err := NewSession(g.Dirty, g.Constraints, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := &modelRun{t: t, cfg: cfg, opts: opts, cs: g.Constraints, rng: rand.New(rand.NewSource(sc.Seed)),
		m: newSessionModel(g.Dirty), s: s, script: sc}
	for _, c := range g.Constraints {
		for _, pr := range c.Predicates {
			for _, o := range []dc.Operand{pr.Left, pr.Right} {
				if a := g.Dirty.AttrIndex(o.Attr); !o.IsConst && !slices.Contains(r.constrained, a) {
					r.constrained = append(r.constrained, a)
				}
			}
		}
	}
	defer func() {
		if t.Failed() {
			t.Logf("replay with:\n%s", sc)
		}
	}()
	res, err := s.Clean()
	if err != nil {
		t.Fatal(err)
	}
	r.check("clean", res, true)
	if steps == nil {
		kinds := r.stepKinds()
		for i, kind := range kinds {
			r.generate(kind, len(kinds)-1-i)
			r.endStep()
		}
	} else {
		for _, step := range steps {
			sc.Steps = append(sc.Steps, nil)
			for _, o := range step {
				r.do(o)
			}
			r.endStep()
		}
	}
	if cfg.reuses && r.reused == 0 {
		t.Error("no pass carried a shard forward: the script never exercised invalidation")
	}
	if opts.MaxComponentCells > 0 && r.split == 0 {
		t.Error("no pass split a component")
	}
}

// stepKinds draws the order of a script's eleven steps: five random deltas
// of 6–14 ops, one capture-order delta, two feedback steps, a no-op
// reclean, a snapshot and a fold, neither of which is last (their copies
// need a next step to follow).
func (r *modelRun) stepKinds() []string {
	kinds := []string{"delta", "delta", "delta", "delta", "delta", "overlap", "feedback", "feedback", "noop", "snapshot", "fold"}
	r.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for last := len(kinds) - 1; kinds[last] == "snapshot" || kinds[last] == "fold"; {
		i := r.rng.Intn(last)
		kinds[i], kinds[last] = kinds[last], kinds[i]
	}
	return kinds
}

// endStep retires the restored copy once it has followed one step, and
// settles the staged copy once it has staged its steps: from then on each
// is the live session.
func (r *modelRun) endStep() {
	step := r.script.Steps[len(r.script.Steps)-1]
	has := func(kind string) bool {
		return slices.ContainsFunc(step, func(o modelOp) bool { return o.Kind == kind })
	}
	if r.shadow != nil && !has("snapshot") {
		r.s, r.shadow = r.shadow, nil
	}
	if r.staged != nil && !has("fold") {
		if r.fold--; r.fold == 0 {
			r.settleFold()
		}
	}
}

// generate draws one step of the given kind from the model's current
// state, with left steps after it, and runs it op by op.
func (r *modelRun) generate(kind string, left int) {
	r.script.Steps = append(r.script.Steps, nil)
	rng, m := r.rng, r.m
	width := len(m.rows[0])
	n := func() int { return len(m.rows) }
	switch kind {
	case "delta":
		for k := 6 + rng.Intn(9); k > 0; k-- {
			switch op := rng.Intn(6); {
			case op < 2:
				t, a := rng.Intn(n()), r.attr()
				r.do(modelOp{Kind: "set", Tuple: t, Attr: a, Value: typo(rng, m.rows[t][a])})
			case op < 4:
				t, a := rng.Intn(n()), r.attr()
				r.do(modelOp{Kind: "set", Tuple: t, Attr: a, Value: m.rows[rng.Intn(n())][a]})
			case op < 5:
				r.do(modelOp{Kind: "append", Row: r.mixedRow()})
			default:
				r.do(modelOp{Kind: "delete", Tuple: rng.Intn(n())})
			}
		}
		r.do(modelOp{Kind: "reclean"})
	case "overlap":
		// The last slot is written, then a delete moves that tuple and an
		// append fills the vacated slot; another slot is written twice,
		// back to the row the last pass cleaned there.
		last, a := n()-1, rng.Intn(width)
		r.do(modelOp{Kind: "set", Tuple: last, Attr: a, Value: typo(rng, m.rows[last][a])})
		r.do(modelOp{Kind: "delete", Tuple: rng.Intn(last)})
		r.do(modelOp{Kind: "append", Row: r.mixedRow()})
		t, a := rng.Intn(n()), rng.Intn(width)
		orig := m.rows[t][a]
		r.do(modelOp{Kind: "set", Tuple: t, Attr: a, Value: typo(rng, orig)})
		r.do(modelOp{Kind: "set", Tuple: t, Attr: a, Value: orig})
		r.do(modelOp{Kind: "reclean"})
	case "feedback":
		// Half the time a staged delete the feedback round folds in; then,
		// for the step's reclean, a delete that moves the last tuple, which
		// holds a confirmation, and an upsert that contradicts a
		// confirmation.
		k, last := -1, n()-1
		if rng.Intn(2) == 0 {
			k = rng.Intn(n())
			r.do(modelOp{Kind: "delete", Tuple: k})
		}
		r.do(modelOp{Kind: "feedback", FB: r.drawFeedback(k, last)})
		r.do(modelOp{Kind: "delete", Tuple: rng.Intn(n() - 1)})
		if len(m.confirmed) > 0 {
			f := m.confirmed[rng.Intn(len(m.confirmed))]
			r.do(modelOp{Kind: "set", Tuple: f.Cell.Tuple, Attr: f.Cell.Attr, Value: typo(rng, f.Value)})
		}
		r.do(modelOp{Kind: "reclean"})
	case "noop":
		// A relearn re-executes everything: a second no-op then carries
		// everything forward.
		r.do(modelOp{Kind: "reclean"})
		if every := r.opts.RelearnEvery; every > 0 && m.recleans%every == 0 {
			r.do(modelOp{Kind: "reclean"})
		}
	case "snapshot":
		r.do(modelOp{Kind: "snapshot"})
	case "fold":
		r.do(modelOp{Kind: "fold", Steps: min(1+rng.Intn(4), left)})
	}
}

// attr draws the attribute an upsert writes: three times in four one a
// constraint references, where writes move violations and joins.
func (r *modelRun) attr() int {
	if r.rng.Intn(4) == 0 {
		return r.rng.Intn(len(r.m.rows[0]))
	}
	return r.constrained[r.rng.Intn(len(r.constrained))]
}

// typo appends a character to v and overwrites a random one.
func typo(rng *rand.Rand, v string) string {
	b := []byte(v + "x")
	b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
	return string(b)
}

// mixedRow assembles a row from random tuples' values.
func (r *modelRun) mixedRow() []string {
	row := make([]string, len(r.m.rows[0]))
	for a := range row {
		row[a] = r.m.rows[r.rng.Intn(len(r.m.rows))][a]
	}
	return row
}

// drawFeedback confirms up to three cells the last result inferred, taken
// through the delete of slot k (when k >= 0) that moved tuple last into it
// — a repair accepted (its row moves) or rejected, or any noisy cell's
// observed value (the cell leaves the noisy set, no row moves) — and the
// observed value of a cell of the relation's last tuple.
func (r *modelRun) drawFeedback(k, last int) []Feedback {
	cells := slices.SortedFunc(maps.Keys(r.last.Marginals), func(a, b Cell) int {
		if a.Tuple != b.Tuple {
			return a.Tuple - b.Tuple
		}
		return a.Attr - b.Attr
	})
	confirmed := make(map[Cell]bool)
	for _, f := range r.m.confirmed {
		confirmed[f.Cell] = true
	}
	var fb []Feedback
	for tries := 0; tries < 20 && len(fb) < 3 && len(cells) > 0; tries++ {
		c, value := cells[r.rng.Intn(len(cells))], ""
		if reps := r.last.Repairs; r.rng.Intn(2) == 0 && len(reps) > 0 {
			rep := reps[r.rng.Intn(len(reps))]
			c, value = rep.Cell, rep.New
			if r.rng.Intn(2) == 0 {
				value = "" // the repair is rejected: its observed value is confirmed
			}
		}
		switch {
		case k < 0:
		case c.Tuple == k:
			continue
		case c.Tuple == last:
			c.Tuple = k
		}
		if value == "" {
			value = r.m.rows[c.Tuple][c.Attr]
		}
		if value == "" || confirmed[c] {
			continue
		}
		confirmed[c] = true
		fb = append(fb, Feedback{Cell: c, Value: value})
	}
	t, width := len(r.m.rows)-1, len(r.m.rows[0])
	for i, start := 0, r.rng.Intn(width); i < width; i++ {
		c := Cell{Tuple: t, Attr: (start + i) % width}
		if v := r.m.rows[t][c.Attr]; v != "" && !confirmed[c] {
			return append(fb, Feedback{Cell: c, Value: v})
		}
	}
	return fb
}

// do runs one op on the live session, on the restored copy following it
// and on the model, and checks every pass it runs.
func (r *modelRun) do(o modelOp) {
	t, m := r.t, r.m
	t.Helper()
	steps := r.script.Steps
	steps[len(steps)-1] = append(steps[len(steps)-1], o)
	sessions := []*Session{r.s}
	if r.shadow != nil {
		sessions = append(sessions, r.shadow)
	}
	var row []string // the row a "set" upserts
	if o.Kind == "set" {
		row = slices.Clone(m.rows[o.Tuple])
		row[o.Attr] = o.Value
	}
	var results []*Result
	for _, s := range sessions {
		var res *Result
		var err error
		switch o.Kind {
		case "set":
			_, err = s.Upsert(o.Tuple, row)
		case "append":
			_, err = s.Upsert(-1, o.Row)
		case "delete":
			err = s.Delete(o.Tuple)
		case "feedback":
			res, err = s.Feedback(o.FB)
		case "reclean":
			res, err = s.Reclean()
		case "snapshot":
			r.restore()
			return
		case "fold":
			r.stageFold(o.Steps)
			return
		default:
			t.Fatalf("unknown op %q", o.Kind)
		}
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		results = append(results, res)
	}
	if r.staged != nil {
		r.stageOp(o, row, results[0])
	}
	switch o.Kind {
	case "set":
		m.upsert(o.Tuple, row)
	case "append":
		m.append(slices.Clone(o.Row))
	case "delete":
		m.delete(o.Tuple)
	case "feedback", "reclean":
		if o.Kind == "feedback" {
			m.confirm(o.FB)
		}
		m.recleans++
		every := r.opts.RelearnEvery
		r.check(o.Kind, results[0], every > 0 && m.recleans%every == 0)
		if r.shadow != nil {
			requireIdenticalResults(t, "restored copy, next step", results[1], results[0])
			r.requireState("restored copy, next step", r.shadow)
		}
	}
}

// restore snapshots the live session and restores a copy, which must
// reproduce the last result, the counter, the weights and the snapshot
// bytes; the copy then follows the live session through the next step.
func (r *modelRun) restore() {
	t := r.t
	snap := r.snapshot(r.s)
	restored, res, err := RestoreSession(bytes.NewReader(snap), r.opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "restore", res, r.last)
	if !bytes.Equal(snap, r.snapshot(restored)) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical")
	}
	r.requireState("restored copy", restored)
	r.shadow = restored
}

// stageFold snapshots the live session and decodes a staged copy, which
// stages the rounds of the next steps steps and owes their pass.
func (r *modelRun) stageFold(steps int) {
	staged, err := StageSession(bytes.NewReader(r.snapshot(r.s)), r.opts)
	if err != nil {
		r.t.Fatal(err)
	}
	r.staged, r.fold, r.owes, r.relearned = staged, steps, true, nil
}

// stageOp runs one op on the staged copy: mutations as the live session
// does, a round (reclean, feedback) with Stage. A round that relearns runs
// its pass, whose result must be the live round's.
func (r *modelRun) stageOp(o modelOp, row []string, live *Result) {
	t, s := r.t, r.staged
	t.Helper()
	var res *Result
	var err error
	switch o.Kind {
	case "set":
		_, err = s.Upsert(o.Tuple, row)
	case "append":
		_, err = s.Upsert(-1, o.Row)
	case "delete":
		err = s.Delete(o.Tuple)
	case "feedback":
		res, err = s.Stage(o.FB)
	case "reclean":
		res, err = s.Stage(nil)
	}
	if err != nil {
		t.Fatalf("staged %+v: %v", o, err)
	}
	switch {
	case res != nil:
		requireIdenticalResults(t, "staged relearn", res, live)
		r.owes, r.relearned = false, res
		foldRelearns.Add(1)
	case o.Kind == "feedback" || o.Kind == "reclean":
		r.owes = true
	}
}

// settleFold runs the one pass the staged copy owes, unless its last round
// relearned, and requires the copy to equal the live session: the last
// result, the counter, the weights and the snapshot bytes.
func (r *modelRun) settleFold() {
	t, s, res := r.t, r.staged, r.relearned
	if r.owes {
		var err error
		if res, err = s.Reclean(); err != nil {
			t.Fatal(err)
		}
	}
	requireIdenticalResults(t, "folded copy", res, r.last)
	r.requireState("folded copy", s)
	if !bytes.Equal(r.snapshot(s), r.snapshot(r.s)) {
		t.Fatal("the folded copy's snapshot differs from the live session's")
	}
	r.s, r.staged = s, nil
}

// snapshot returns the bytes of a snapshot of s.
func (r *modelRun) snapshot(s *Session) []byte {
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		r.t.Fatal(err)
	}
	return buf.Bytes()
}

// requireState checks a session's reclean counter and weights against the
// model's.
func (r *modelRun) requireState(label string, s *Session) {
	if s.Recleans() != r.m.recleans || !maps.Equal(s.Weights(), r.m.weights) {
		r.t.Fatalf("%s: Recleans() = %d, model %d; weights equal the model's: %v",
			label, s.Recleans(), r.m.recleans, maps.Equal(s.Weights(), r.m.weights))
	}
}

// check holds one pass of the live session to the model: its relation
// and confirmations are the model's; its result equals a from-scratch
// CleanWithFeedback of the model relation under the model's weights, or,
// on a relearn, under freshly learned ones, which become the model's
// weights and must be the session's; the model sizes of RunStats agree
// (all of them on a full pass); the reclean counter is the model's; the
// invariants of a posterior hold; and the reuse rule holds.
func (r *modelRun) check(label string, res *Result, relearn bool) {
	t, m, s := r.t, r.m, r.s
	t.Helper()
	steps := r.script.Steps
	noop := len(steps) > 0 && !slices.ContainsFunc(steps[len(steps)-1], func(o modelOp) bool { return o.Kind != "reclean" })
	label = fmt.Sprintf("step %d %s", len(steps), label)
	cur := s.Dataset()
	ds := m.dataset(cur)
	if !ds.Equal(cur) || !slices.Equal(s.Confirmed(), m.confirmed) {
		t.Fatalf("%s: the session's relation or confirmations left the model's", label)
	}
	for tup, src := range m.sources {
		if cur.Source(tup) != src {
			t.Fatalf("%s: tuple %d has source %q, model %q", label, tup, cur.Source(tup), src)
		}
	}
	refOpts := r.opts
	refOpts.InitialWeights = m.weights
	if relearn {
		refOpts.InitialWeights = nil
	}
	ref, err := New(refOpts).CleanWithFeedback(ds, r.cs, m.confirmed)
	if err != nil {
		t.Fatal(err)
	}
	if relearn {
		m.weights = ref.LearnedWeights
	}
	requireIdenticalResults(t, label, res, ref)
	r.requireState(label, s)
	sizes := func(st RunStats) RunStats { // everything but clocks and allocator counters
		st.AllocBytes, st.AllocObjects, st.PeakHeapBytes = 0, 0, 0
		st.DetectTime, st.CompileTime, st.LearnTime, st.InferTime, st.TotalTime = 0, 0, 0, 0, 0
		return st
	}
	got, want := res.Stats, ref.Stats
	switch {
	case relearn && !reflect.DeepEqual(sizes(got), sizes(want)):
		t.Fatalf("%s: full-pass model sizes differ:\ngot  %+v\nwant %+v", label, sizes(got), sizes(want))
	case got.NoisyCells != want.NoisyCells || got.InertCells != want.InertCells || got.QueryVars != want.QueryVars ||
		got.EvidenceVars != want.EvidenceVars || got.Weights != want.Weights:
		t.Fatalf("%s: RunStats differ:\ngot  %+v\nwant %+v", label, got, want)
	}

	// Invariants of the posterior.
	confirmed := make(map[Cell]bool)
	for _, f := range m.confirmed {
		confirmed[f.Cell] = true
		if _, ok := res.Marginals[f.Cell]; ok || res.Repaired.GetString(f.Cell.Tuple, f.Cell.Attr) != f.Value {
			t.Fatalf("%s: confirmed cell %v is inferred or lost its value", label, f.Cell)
		}
	}
	for c, dist := range res.Marginals {
		sum := 0.0
		for _, vp := range dist {
			sum += vp.P
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: marginal of %v sums to %v", label, c, sum)
		}
	}
	for i, rep := range res.Repairs {
		if i > 0 {
			if prev := res.Repairs[i-1]; prev.Tuple > rep.Tuple || prev.Tuple == rep.Tuple && prev.Cell.Attr >= rep.Cell.Attr {
				t.Fatalf("%s: repair %+v follows %+v: Repairs must ascend by tuple, then attribute", label, rep, prev)
			}
		}
		if confirmed[rep.Cell] {
			t.Fatalf("%s: confirmed cell %v repaired", label, rep.Cell)
		}
		if dist := res.Marginals[rep.Cell]; len(dist) == 0 || rep.Probability != dist[0].P {
			t.Fatalf("%s: repair %+v is not its cell's top marginal %v", label, rep, dist)
		}
	}

	// The reuse rule: only DC Feats without fusion carries outcomes
	// forward — everything, on a no-op — and any other configuration
	// executes the full plan.
	switch {
	case !r.cfg.reuses && (got.ShardsReused != 0 || got.Shards != want.Shards):
		t.Fatalf("%s: executed %d shards and reused %d, want the full plan's %d and none", label, got.Shards, got.ShardsReused, want.Shards)
	case r.cfg.reuses && noop && !relearn && (got.Shards != 0 || got.ShardsReused != want.Shards):
		t.Fatalf("%s: a no-op reclean executed %d shards and reused %d of %d", label, got.Shards, got.ShardsReused, want.Shards)
	}
	r.reused += got.ShardsReused
	r.split += got.SplitShards
	r.last = res
}
