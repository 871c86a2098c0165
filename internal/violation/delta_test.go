package violation

import (
	"fmt"
	"math/rand"
	"testing"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// buildConflicted returns a dataset with duplicate groups and scattered
// errors plus FD-style constraints, the shape incremental re-detection
// targets.
func buildConflicted(rng *rand.Rand, groups int) (*dataset.Dataset, []*dc.Constraint) {
	ds := dataset.New([]string{"Key", "Val", "Tag"})
	for g := 0; g < groups; g++ {
		k := fmt.Sprintf("k%02d", g)
		v := fmt.Sprintf("v%02d", g)
		for i := 0; i < 2+rng.Intn(3); i++ {
			val := v
			if rng.Intn(4) == 0 {
				val = fmt.Sprintf("bad%02d-%d", g, i)
			}
			ds.Append([]string{k, val, fmt.Sprintf("t%d", rng.Intn(2))})
		}
	}
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("fd1", []string{"Key"}, []string{"Val"})...)
	cs = append(cs, dc.FD("fd2", []string{"Val"}, []string{"Tag"})...)
	// A constraint with no cross-tuple equality join, exercising the scan
	// fallback.
	cs = append(cs, dc.MustParse("t1&t2&IQ(t1.Key,t2.Key)&EQ(t1.Val,t2.Val)"))
	return ds, cs
}

func violationsEqual(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDetectDeltaMatchesFull is the scoped-detection oracle: after a
// random batch of updates, appends, and swap-deletes, DetectDelta over
// the previous violations must equal a from-scratch Detect of the mutated
// dataset, element for element.
func TestDetectDeltaMatchesFull(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds, cs := buildConflicted(rng, 4+rng.Intn(4))
		det, err := NewDetector(ds, cs)
		if err != nil {
			t.Fatal(err)
		}
		prev := det.Detect()

		changed := make(map[int]bool)
		// In-place updates.
		for k := 0; k < 1+rng.Intn(3); k++ {
			tup := rng.Intn(ds.NumTuples())
			ds.SetString(tup, rng.Intn(ds.NumAttrs()), fmt.Sprintf("mut%d", rng.Intn(6)))
			changed[tup] = true
		}
		// Appends.
		for k := 0; k < rng.Intn(2); k++ {
			tup := ds.Append([]string{fmt.Sprintf("k%02d", rng.Intn(4)), fmt.Sprintf("v%02d", rng.Intn(4)), "t0"})
			changed[tup] = true
		}
		// Swap-deletes: the moved tuple is renumbered, so it counts as
		// changed; the vacated last slot falls out of range.
		if rng.Intn(2) == 0 && ds.NumTuples() > 3 {
			tup := rng.Intn(ds.NumTuples() - 1)
			ds.DeleteSwap(tup)
			changed[tup] = true
		}

		// Rebind against the mutated dataset, as a session would.
		det2, err := NewDetector(ds, cs)
		if err != nil {
			t.Fatal(err)
		}
		got := det2.DetectDelta(prev, changed)
		want := det2.Detect()
		if !violationsEqual(got, want) {
			t.Fatalf("seed %d: delta detection diverges: got %d violations, want %d\ngot:  %v\nwant: %v",
				seed, len(got), len(want), got, want)
		}
	}
}

// TestDetectDeltaNoChanges pins the fast path: an empty change set must
// reproduce the previous violations untouched.
func TestDetectDeltaNoChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, cs := buildConflicted(rng, 5)
	det, err := NewDetector(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	prev := det.Detect()
	got := det.DetectDelta(prev, map[int]bool{})
	if !violationsEqual(got, prev) {
		t.Fatalf("empty delta changed the violation list")
	}
}

// TestDetectDeltaStripedMatchesNaive covers the one regime the small
// fixtures above never reach: a change set of hundreds of tuples while
// some tuples stay unchanged, so the pair walk probes the reverse-direction
// index from many changed tuples. The oracle is the naive scan of the
// mutated dataset.
func TestDetectDeltaStripedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds, cs := buildConflicted(rng, 200)
	det, err := NewDetector(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	prev := det.Detect()
	changed := make(map[int]bool)
	for len(changed) < 306 {
		tup := rng.Intn(ds.NumTuples())
		ds.SetString(tup, rng.Intn(2), fmt.Sprintf("v%02d", rng.Intn(200)))
		changed[tup] = true
	}
	if len(changed) >= ds.NumTuples() {
		t.Fatalf("fixture too small: every one of %d tuples changed", ds.NumTuples())
	}
	det2, err := NewDetector(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	got := det2.DetectDelta(prev, changed)
	// NaiveDetect emits per constraint in (T1, T2) order, as detection does.
	want, err := NaiveDetect(ds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if !violationsEqual(got, want) {
		t.Fatalf("wide delta detection diverges from the naive scan: got %d violations, want %d", len(got), len(want))
	}
}
