package holoclean

import (
	"bytes"
	"fmt"
	"testing"

	"holoclean/internal/datagen"
)

func TestFeedbackLoop(t *testing.T) {
	// An ambiguous 1-1 conflict the model may resolve either way; user
	// feedback pins the truth and the re-run must respect it.
	ds := NewDataset([]string{"Key", "Val"})
	ds.Append([]string{"k", "a"})
	ds.Append([]string{"k", "b"})
	for i := 0; i < 6; i++ {
		ds.Append([]string{"x", "c"})
	}
	cs := FD("fd", []string{"Key"}, []string{"Val"})
	cl := New(DefaultOptions())
	res, err := cl.Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	low := res.LowConfidenceRepairs(1.01)
	for i := 1; i < len(low); i++ {
		if low[i-1].Probability > low[i].Probability {
			t.Errorf("LowConfidenceRepairs not sorted")
		}
	}
	// Confirm tuple 0's value is "a": tuple 1 must become "a" too.
	res2, err := cl.CleanWithFeedback(ds, cs, []Feedback{{Cell: Cell{Tuple: 0, Attr: 1}, Value: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Repaired.GetString(0, 1); got != "a" {
		t.Errorf("confirmed cell changed to %q", got)
	}
	if got := res2.Repaired.GetString(1, 1); got != "a" {
		t.Errorf("conflicting cell = %q, want the confirmed value a", got)
	}
	// The confirmed cell must not appear among repairs or marginals.
	if res2.MarginalOf(Cell{Tuple: 0, Attr: 1}) != nil {
		t.Errorf("confirmed cell should not be a query variable")
	}
	// Input untouched.
	if ds.GetString(0, 1) != "a" || ds.GetString(1, 1) != "b" {
		t.Errorf("input mutated")
	}
}

func TestFeedbackOutOfRange(t *testing.T) {
	ds := NewDataset([]string{"A", "B"})
	ds.Append([]string{"x", "y"})
	cs := FD("fd", []string{"A"}, []string{"B"})
	if _, err := New(DefaultOptions()).CleanWithFeedback(ds, cs, []Feedback{{Cell: Cell{Tuple: 5, Attr: 0}, Value: "z"}}); err == nil {
		t.Errorf("out-of-range feedback should fail")
	}
}

// TestLowConfidenceRepairsTieBreak pins the deterministic ordering
// contract: repairs with equal probability sort by (Tuple, Attr), so a
// paginated review queue is stable across identical runs regardless of
// the order repairs entered the result.
func TestLowConfidenceRepairsTieBreak(t *testing.T) {
	mk := func(tuple, attr int, p float64) Repair {
		return Repair{Cell: Cell{Tuple: tuple, Attr: attr}, Tuple: tuple, Probability: p}
	}
	// Two permutations of the same repair set with heavy probability ties.
	a := &Result{Repairs: []Repair{
		mk(5, 1, 0.4), mk(2, 3, 0.4), mk(2, 1, 0.4), mk(9, 0, 0.2), mk(1, 1, 0.7),
	}}
	b := &Result{Repairs: []Repair{
		mk(1, 1, 0.7), mk(2, 1, 0.4), mk(9, 0, 0.2), mk(5, 1, 0.4), mk(2, 3, 0.4),
	}}
	la, lb := a.LowConfidenceRepairs(0.9), b.LowConfidenceRepairs(0.9)
	want := []Cell{{Tuple: 9, Attr: 0}, {Tuple: 2, Attr: 1}, {Tuple: 2, Attr: 3}, {Tuple: 5, Attr: 1}, {Tuple: 1, Attr: 1}}
	if len(la) != len(want) || len(lb) != len(want) {
		t.Fatalf("lengths %d/%d, want %d", len(la), len(lb), len(want))
	}
	for i := range want {
		if la[i].Cell != want[i] || lb[i].Cell != want[i] {
			t.Errorf("position %d: %v / %v, want %v", i, la[i].Cell, lb[i].Cell, want[i])
		}
	}
}

// TestFeedbackRejectsEmptyValue: a confirmed value that interns to Null
// is a contradiction (a confirmation asserts an observation) and must be
// rejected, not silently accepted.
func TestFeedbackRejectsEmptyValue(t *testing.T) {
	ds, cs := smallDirty()
	if _, err := New(DefaultOptions()).CleanWithFeedback(ds, cs,
		[]Feedback{{Cell: Cell{Tuple: 0, Attr: 1}, Value: ""}}); err == nil {
		t.Errorf("empty confirmed value should fail")
	}
	s, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 0, Attr: 1}, Value: ""}}); err == nil {
		t.Errorf("session: empty confirmed value should fail")
	}
}

// TestFeedbackRejectsDuplicates: two confirmations for one cell — within
// a batch or across batches — are a contradiction and must error instead
// of last-write-wins.
func TestFeedbackRejectsDuplicates(t *testing.T) {
	ds, cs := smallDirty()
	dup := []Feedback{
		{Cell: Cell{Tuple: 0, Attr: 1}, Value: "a"},
		{Cell: Cell{Tuple: 0, Attr: 1}, Value: "b"},
	}
	if _, err := New(DefaultOptions()).CleanWithFeedback(ds, cs, dup); err == nil {
		t.Errorf("in-batch duplicate feedback should fail")
	}

	s, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feedback(dup); err == nil {
		t.Errorf("session: in-batch duplicate feedback should fail")
	}
	if len(s.Confirmed()) != 0 {
		t.Fatalf("rejected batch left %d confirmations behind", len(s.Confirmed()))
	}
	if _, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 0, Attr: 1}, Value: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 0, Attr: 1}, Value: "a"}}); err == nil {
		t.Errorf("session: cross-batch duplicate feedback should fail")
	}
	if got := len(s.Confirmed()); got != 1 {
		t.Errorf("confirmed set has %d entries, want 1", got)
	}
}

// TestSessionFeedbackMatchesCleanWithFeedback: applying feedback through
// a session (with weight reuse) must be byte-identical to the one-shot
// CleanWithFeedback path on the same pre-feedback dataset with the same
// injected weights — the session serving layer and the library path are
// the same model.
func TestSessionFeedbackMatchesCleanWithFeedback(t *testing.T) {
	ds, cs := sessionFixture(12)
	opts := DefaultOptions()
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	before := s.Dataset()
	fb := []Feedback{
		{Cell: Cell{Tuple: 4, Attr: 1}, Value: "v000"}, // the bad tuple of group 0
		{Cell: Cell{Tuple: 9, Attr: 1}, Value: "v001"},
	}
	got, err := s.Feedback(fb)
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	want, err := New(refOpts).CleanWithFeedback(before, cs, fb)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "session feedback", got, want)
	// Confirmed cells hold their values and are no longer query variables.
	for _, f := range fb {
		if got.Repaired.GetString(f.Cell.Tuple, f.Cell.Attr) != f.Value {
			t.Errorf("confirmed cell %v not pinned to %q", f.Cell, f.Value)
		}
		if got.MarginalOf(f.Cell) != nil {
			t.Errorf("confirmed cell %v still inferred", f.Cell)
		}
	}
	// A follow-up delta reclean must keep honoring the confirmations.
	if _, err := s.Upsert(7, []string{"k001", "bad-later"}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	refOpts2 := opts
	refOpts2.InitialWeights = s.Weights()
	want2, err := New(refOpts2).CleanWithFeedback(func() *Dataset {
		d := before.Clone()
		d.SetString(7, 0, "k001")
		d.SetString(7, 1, "bad-later")
		return d
	}(), cs, fb)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "post-feedback reclean", after, want2)
}

// TestSessionFeedbackRelearnSchedule: feedback rounds count toward the
// RelearnEvery schedule — with RelearnEvery=1 every feedback batch
// retrains (confirmed cells as labeled evidence), with the default 0 the
// learned weights are reused and no SGD runs.
func TestSessionFeedbackRelearnSchedule(t *testing.T) {
	ds, cs := sessionFixture(8)
	opts := DefaultOptions()
	opts.RelearnEvery = 1
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 4, Attr: 1}, Value: "v000"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LearnTime == 0 {
		t.Errorf("RelearnEvery=1 feedback round skipped retraining")
	}

	ds2, cs2 := sessionFixture(8)
	s2, err := NewSession(ds2, cs2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Clean(); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Feedback([]Feedback{{Cell: Cell{Tuple: 4, Attr: 1}, Value: "v000"}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.LearnTime != 0 {
		t.Errorf("RelearnEvery=0 feedback round ran SGD; want weight reuse")
	}
}

// TestSessionFeedbackSurvivesDeltas pins how confirmations interact
// with later deltas: a swap-delete renumbers confirmations on the moved
// tuple (and drops the deleted tuple's), and an upsert that overwrites
// a confirmed value supersedes the confirmation. Either way the session
// keeps satisfying the equivalence contract and stays snapshotable.
func TestSessionFeedbackSurvivesDeltas(t *testing.T) {
	ds, cs := sessionFixture(10)
	opts := DefaultOptions()
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	n := s.NumTuples()
	// Confirm a cell on the LAST tuple, then delete an earlier tuple:
	// DeleteSwap moves the confirmed tuple into the vacated slot.
	last := n - 1
	if _, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: last, Attr: 1}, Value: "v009"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	conf := s.Confirmed()
	if len(conf) != 1 || conf[0].Cell.Tuple != 4 {
		t.Fatalf("confirmation not renumbered with the swapped tuple: %+v", conf)
	}
	incr, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	want, err := New(refOpts).CleanWithFeedback(s.Dataset(), cs, conf)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "post-swap reclean", incr, want)

	// The session must still snapshot and restore (the stale index
	// would have failed restore validation).
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RestoreSession(&buf, opts); err != nil {
		t.Fatal(err)
	}

	// Deleting the confirmed tuple itself drops the confirmation; an
	// upsert overwriting the confirmed value supersedes it too.
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	if got := s.Confirmed(); len(got) != 0 {
		t.Fatalf("confirmation survived deletion of its tuple: %+v", got)
	}
	if _, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 2, Attr: 1}, Value: "v000"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Upsert(2, []string{"k000", "overwritten"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Confirmed(); len(got) != 0 {
		t.Fatalf("confirmation survived an upsert that changed its value: %+v", got)
	}
}

// TestSessionFeedbackIsScopedReclean: a feedback round that does not
// relearn is an incremental pass — shards the confirmations never reached
// carry forward.
func TestSessionFeedbackIsScopedReclean(t *testing.T) {
	ds, cs := sessionFixture(12)
	s, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Feedback([]Feedback{{Cell: Cell{Tuple: 4, Attr: 1}, Value: "v000"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardsReused == 0 {
		t.Errorf("ShardsReused = 0 after a non-relearning feedback round, want > 0")
	}
	if res.Stats.LearnTime != 0 {
		t.Errorf("feedback round relearned (LearnTime = %v) with RelearnEvery = 0", res.Stats.LearnTime)
	}
}

// TestSessionFeedbackInvalidatesSiblings: confirming a cell's current
// value changes no row and no noisy mask, yet the cell stops being a
// query variable, which moves the weak-evidence discount of every
// dictionary match and relaxed constraint conditioned on it. The scoped
// feedback round must re-execute those siblings: rounds on Food (which
// has dictionary matches) stay byte-identical to CleanWithFeedback.
func TestSessionFeedbackInvalidatesSiblings(t *testing.T) {
	g := datagen.Food(datagen.Config{Tuples: 500, Seed: 1})
	opts := DefaultOptions()
	opts.Dictionaries, opts.MatchDependencies = g.Dictionaries, g.MatchDeps
	s, err := NewSession(g.Dirty, g.Constraints, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Clean()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		confirmed := s.confirmedSet()
		var fb []Feedback
		for i, r := range res.Repairs {
			if i%7 == round && !confirmed[r.Cell] && r.Old != "" && len(fb) < 3 {
				fb = append(fb, Feedback{Cell: r.Cell, Value: r.Old})
			}
		}
		before, all := s.Dataset(), append(s.Confirmed(), fb...)
		if res, err = s.Feedback(fb); err != nil {
			t.Fatal(err)
		}
		ref := opts
		ref.InitialWeights = s.Weights()
		want, err := New(ref).CleanWithFeedback(before, g.Constraints, all)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, fmt.Sprintf("round %d", round), res, want)
		if res.Stats.ShardsReused == 0 {
			t.Errorf("round %d: ShardsReused = 0, want > 0", round)
		}
	}
}

func TestFeedbackEmptyFallsThrough(t *testing.T) {
	ds, cs := smallDirty()
	r1, err := New(DefaultOptions()).CleanWithFeedback(ds, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(DefaultOptions()).Clean(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Repaired.Equal(r2.Repaired) {
		t.Errorf("empty feedback should be identical to Clean")
	}
}
