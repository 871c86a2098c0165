package holoclean

import (
	"fmt"
	"testing"
)

// flipFixture builds the relation of TestHistogramFlipLeavesCellClean
// under the FD Key → Val. Tuple 0 is the cell under test: its Val is in
// conflict with tuples 1 and 2 and it shares Ctx = "ctx" with tuple 3 only.
// Tuple 3's Val ("w") is in conflict with tuple 4's ("x") until the test
// rewrites tuple 4. The background groups keep every attribute far from the
// quasi-key boundary.
func flipFixture() (*Dataset, []*Constraint) {
	ds := NewDataset([]string{"Key", "Val", "Ctx"})
	ds.Append([]string{"k1", "bad", "ctx"})
	ds.Append([]string{"k1", "good", "g1"})
	ds.Append([]string{"k1", "good", "g1"})
	ds.Append([]string{"k2", "w", "ctx"})
	ds.Append([]string{"k2", "x", "gx"})
	for g := 0; g < 4; g++ {
		for i := 0; i < 8; i++ {
			ds.Append([]string{fmt.Sprintf("kb%d", g), fmt.Sprintf("vb%d", g), "g1"})
		}
	}
	return ds, FD("fd", []string{"Key"}, []string{"Val"})
}

// TestHistogramFlipLeavesCellClean: a conditional histogram that flips
// between empty and non-empty through a value outside a cell's candidate
// set changes nothing the cell grounds — every candidate's bucket was zero
// and stays zero, so the co-occurrence family is skipped before and after
// — and therefore must not invalidate the cell. Here the clean-cell
// histogram of Val given Ctx = "ctx" is empty while tuple 3's Val is
// flagged and becomes {w: 1} once the delta resolves tuple 3's conflict;
// "w" is no candidate of tuple 0's Val.
func TestHistogramFlipLeavesCellClean(t *testing.T) {
	ds, cs := flipFixture()
	opts := DefaultOptions()
	opts.Tau = 0.6 // keeps "w" (Pr[w | ctx] = 1/2) out of tuple 0's domain
	const val, ctx = 1, 2
	cell := Cell{Tuple: 0, Attr: val}
	ctxVal, _ := ds.Dict().Lookup("ctx")
	w, _ := ds.Dict().Lookup("w")

	// compiled runs the delta's compilation stages on a fresh session and
	// returns the pass with its working state intact.
	compiled := func() (*Session, *pass) {
		s, err := NewSession(ds, cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Clean(); err != nil {
			t.Fatal(err)
		}
		if h := s.prev.masked.Row(val, ctx, ctxVal); h.Len() != 0 {
			t.Fatalf("fixture: clean-cell histogram of Val | ctx starts with %d buckets", h.Len())
		}
		if _, err := s.Upsert(4, []string{"k2", "w", "gx"}); err != nil {
			t.Fatal(err)
		}
		return s, s.nextPass(s.prev, s.prev.weights)
	}

	_, p := compiled()
	if err := p.compile(); err != nil {
		t.Fatal(err)
	}
	if h := p.masked.Row(val, ctx, ctxVal); h.Len() != 1 || h.Count(p.masked.Code(val, w)) != 1 {
		t.Fatalf("fixture: clean-cell histogram of Val | ctx after the delta has %d buckets, want {w: 1}", h.Len())
	}
	cands := p.domains.Of(cell)
	if len(cands) < 2 {
		t.Fatalf("fixture: tuple 0's Val has %d candidates; an inert cell grounds no features", len(cands))
	}
	for _, v := range cands {
		if v == w {
			t.Fatal("fixture: w is a candidate of tuple 0's Val")
		}
	}
	if p.dirty == nil {
		t.Fatal("delta was not scoped")
	}
	if !p.dirty[3] || !p.dirty[4] {
		t.Errorf("dirty = %v, want the rewritten tuple 4 and the unflagged tuple 3 in it", p.dirty)
	}
	if p.dirty[cell.Tuple] {
		t.Errorf("tuple 0 is dirty: the histogram flip through a non-candidate value invalidated it")
	}

	// The same delta end to end: byte-identical to a fresh Clean.
	s, _ := compiled()
	incr, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	ref, err := New(refOpts).Clean(s.Dataset(), cs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "flip", incr, ref)
	if incr.Stats.ShardsReused == 0 {
		t.Error("ShardsReused = 0, want the untouched cells carried forward")
	}
}

// TestSessionDeleteLastRowIsPending: deleting the last row renumbers
// nothing, so no surviving slot is touched — the deletion must still count
// as a pending mutation until a Reclean folds it in, or a snapshot taken in
// between would pair the shrunk rows with the previous pass's state.
func TestSessionDeleteLastRowIsPending(t *testing.T) {
	ds, cs := sessionFixture(6)
	s, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(s.NumTuples() - 1); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingMutations(); n != 0 {
		t.Errorf("before the first Clean: PendingMutations = %d, want 0 (nothing cleaned yet)", n)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingMutations(); n != 0 {
		t.Fatalf("after Clean: PendingMutations = %d, want 0", n)
	}
	if err := s.Delete(s.NumTuples() - 1); err != nil {
		t.Fatal(err)
	}
	if n := s.PendingMutations(); n == 0 {
		t.Error("PendingMutations = 0 with the last row's deletion staged")
	}
	incr, err := s.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	if n := s.PendingMutations(); n != 0 {
		t.Errorf("after Reclean: PendingMutations = %d, want 0", n)
	}
	refOpts := DefaultOptions()
	refOpts.InitialWeights = s.Weights()
	ref, err := New(refOpts).Clean(s.Dataset(), cs)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "delete last", incr, ref)
}

// TestResultMarginalsOwnedByCaller pins the ownership rule of marginal
// slices: a Result's belong to the caller, the session keeps its own
// copies. Scribbling over every slice a Clean and a Reclean returned must
// not leak into the next Reclean, whose reused cells carry the session's
// cached marginals forward.
func TestResultMarginalsOwnedByCaller(t *testing.T) {
	ds, cs := sessionFixture(30)
	opts := DefaultOptions()
	opts.Workers = 2
	s, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(res *Result) {
		for _, dist := range res.Marginals {
			for i := range dist {
				dist[i] = ValueProb{Value: "scribbled", P: -1}
			}
		}
	}
	first, err := s.Clean()
	if err != nil {
		t.Fatal(err)
	}
	scribble(first)
	refOpts := opts
	refOpts.InitialWeights = s.Weights()
	for round, row := range [][]string{{"k001", "bad-new"}, {"k002", "bad-newer"}} {
		if _, err := s.Upsert(7+5*round, row); err != nil {
			t.Fatal(err)
		}
		incr, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		if incr.Stats.ShardsReused == 0 {
			t.Fatalf("round %d: no shard reused, nothing carried forward to check", round)
		}
		ref, err := New(refOpts).Clean(s.Dataset(), cs)
		if err != nil {
			t.Fatal(err)
		}
		requireIdenticalResults(t, fmt.Sprintf("round %d", round), incr, ref)
		scribble(incr) // reused cells' slices included
	}
}
