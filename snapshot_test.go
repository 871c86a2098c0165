package holoclean

import (
	"bytes"
	"strings"
	"testing"

	"holoclean/internal/telemetry"
)

// TestSessionSnapshotRestore pins the eviction contract of the serving
// layer: a session snapshotted after arbitrary history (clean, deltas,
// feedback) and restored must (a) re-encode to byte-identical snapshot
// bytes, and (b) continue producing byte-identical results to the live
// session it was taken from, operation for operation.
func TestSessionSnapshotRestore(t *testing.T) {
	ds, cs := sessionFixture(15)
	opts := DefaultOptions()
	live, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Clean(); err != nil {
		t.Fatal(err)
	}
	// History: a delta batch (update + append + delete) and a feedback
	// round, so the snapshot carries a renumbered relation, a dictionary
	// with stale entries, weights, and confirmations.
	live.Upsert(3, []string{"k001", "bad-zzz"})
	live.Upsert(-1, []string{"k500", "v500"})
	live.Delete(24)
	if _, err := live.Reclean(); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Feedback([]Feedback{{Cell: Cell{Tuple: 3, Attr: 1}, Value: "v001"}}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snapBytes := append([]byte(nil), buf.Bytes()...)

	restored, restoredRes, err := RestoreSession(bytes.NewReader(snapBytes), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restoredRes == nil {
		t.Fatal("restore of a cleaned session returned no result")
	}
	if !restored.Dataset().Equal(live.Dataset()) {
		t.Fatal("restored dataset differs from live")
	}
	if got, want := len(restored.Confirmed()), len(live.Confirmed()); got != want {
		t.Fatalf("restored %d confirmations, want %d", got, want)
	}

	// (a) Determinism of the envelope: snapshotting the restored session
	// reproduces the original bytes exactly.
	var buf2 bytes.Buffer
	if err := restored.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes, buf2.Bytes()) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical")
	}

	// (b) Behavioral equivalence: the same subsequent delta produces
	// byte-identical results on both sides.
	apply := func(s *Session) *Result {
		t.Helper()
		if _, err := s.Upsert(8, []string{"k002", "bad-after"}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Upsert(-1, []string{"k003", "bad-appended"}); err != nil {
			t.Fatal(err)
		}
		res, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	liveRes := apply(live)
	restRes := apply(restored)
	requireIdenticalResults(t, "post-restore reclean", restRes, liveRes)
}

// TestSessionSnapshotBeforeClean: a snapshot taken before the first Clean
// restores to an uncleaned session (no result) that still cleans to the
// same repairs as the live one.
func TestSessionSnapshotBeforeClean(t *testing.T) {
	ds, cs := sessionFixture(6)
	live, err := NewSession(ds, cs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, res, err := RestoreSession(&buf, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatal("restore of an uncleaned session returned a result")
	}
	a, err := live.Clean()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Clean()
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "first clean after restore", b, a)
}

// TestRestoreSessionEmptyWeights: a session whose model has no learnable
// weight (fixed-weight correlation factors only) learns an empty map,
// which the envelope omits. Its restore must still reuse — run no learn
// stage — and reproduce the live result.
func TestRestoreSessionEmptyWeights(t *testing.T) {
	ds, cs := sessionFixture(8)
	opts := DefaultOptions()
	opts.Variant = VariantDCFactors
	opts.DisableCooccurFeatures = true
	live, err := NewSession(ds, cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := live.Clean()
	if err != nil {
		t.Fatal(err)
	}
	if len(liveRes.Repairs) == 0 || len(liveRes.LearnedWeights) != 0 {
		t.Fatalf("fixture: %d repairs, %d learned weights; want some repairs and no weights",
			len(liveRes.Repairs), len(liveRes.LearnedWeights))
	}
	var buf bytes.Buffer
	if err := live.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opts.Tracer = telemetry.NewTracer(reg, "stage_seconds", "per-stage durations")
	_, res, err := RestoreSession(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "restore", res, liveRes)
	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), `stage="infer"`) || strings.Contains(scrape.String(), `stage="learn"`) {
		t.Errorf("restore pass spans: want infer and no learn, got\n%s", scrape.String())
	}
}

// TestRestoreSessionRejectsBadSnapshots exercises envelope validation.
func TestRestoreSessionRejectsBadSnapshots(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad version": `{"version":99,"attrs":["A"],"rows":[],"constraints":[]}`,
		"ragged row":  `{"version":1,"attrs":["A","B"],"rows":[["x"]],"constraints":["t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)"]}`,
		"no signals":  `{"version":1,"attrs":["A"],"rows":[["x"]],"constraints":[]}`,
	}
	for name, body := range cases {
		if _, _, err := RestoreSession(bytes.NewReader([]byte(body)), DefaultOptions()); err == nil {
			t.Errorf("%s: restore should fail", name)
		}
	}
}

// TestSnapshotRestoreKeepsConstraintConstants pins the constraint text of
// the envelope: a constant holding a byte String's quoting escapes (a
// backslash, a tab, a quote) must come back from Snapshot → RestoreSession
// as the same constant, so the restored session detects what the live one
// did.
func TestSnapshotRestoreKeepsConstraintConstants(t *testing.T) {
	for _, constant := range []string{`C:\dir`, "a\tb", `say "hi"`} {
		// Hand-written: the text between the quotes is the constant.
		cs, err := ParseConstraints(strings.NewReader(`bad: t1&EQ(t1.Path,"` + constant + `")`))
		if err != nil {
			t.Fatal(err)
		}
		if got := cs[0].Predicates[0].Right.Const; got != constant {
			t.Fatalf("hand-written %q parsed as %q", constant, got)
		}
		ds := NewDataset([]string{"ID", "Path"})
		ds.Append([]string{"1", constant})
		ds.Append([]string{"2", constant})
		live, err := NewSession(ds, cs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		liveRes, err := live.Clean()
		if err != nil {
			t.Fatal(err)
		}
		if liveRes.Stats.NoisyCells != 2 {
			t.Fatalf("%q: live session flags %d cells, want 2", constant, liveRes.Stats.NoisyCells)
		}
		var buf bytes.Buffer
		if err := live.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		_, restoredRes, err := RestoreSession(&buf, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if restoredRes.Stats.NoisyCells != 2 {
			t.Errorf("%q: restored session flags %d cells, want 2: the constant did not survive the snapshot", constant, restoredRes.Stats.NoisyCells)
		}
	}
}
