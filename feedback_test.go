package holoclean

import "testing"

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
