package holoclean

import (
	"bytes"
	"strings"
	"testing"

	"holoclean/internal/telemetry"
)

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

// TestStageInternsDictionarySuggestions: a live round's pass interns the
// dictionary suggestions of the relation the round left before the next
// round interns its own values, and value ids order candidate sets. Here
// the first round appends a row whose zip matches a dictionary city the
// relation never held, and the second a row with a fresh city; staged onto
// a decoded snapshot and folded into one pass, the two rounds must leave
// the dictionary — and every other byte of the snapshot — as they did live.
func TestStageInternsDictionarySuggestions(t *testing.T) {
	ds := NewDataset([]string{"City", "Zip"})
	for _, row := range [][]string{{"Chicago", "60608"}, {"Chicago", "60608"}, {"Cicago", "60608"}, {"Urbana", "61801"}} {
		ds.Append(row)
	}
	dict := NewDictionary("zips", []string{"Ext_City", "Ext_Zip"})
	dict.Append([]string{"Chicago", "60608"})
	dict.Append([]string{"Springfield", "62701"})
	opts := DefaultOptions()
	opts.Dictionaries = []*Dictionary{dict}
	opts.MatchDependencies = []*MatchDependency{{
		Name: "m1", Dict: "zips",
		Conditions: []MatchTerm{{DataAttr: "Zip", DictAttr: "Ext_Zip"}},
		Conclusion: MatchTerm{DataAttr: "City", DictAttr: "Ext_City"},
	}}
	live, err := NewSession(ds, FD("fd", []string{"Zip"}, []string{"City"}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Clean(); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := live.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	staged, err := StageSession(&snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want *Result
	for _, row := range [][]string{{"Shelbyville", "62701"}, {"Naperville", "60540"}} {
		for _, s := range []*Session{live, staged} {
			if _, err := s.Upsert(-1, row); err != nil {
				t.Fatal(err)
			}
		}
		if want, err = live.Reclean(); err != nil {
			t.Fatal(err)
		}
		if res, err := staged.Stage(nil); res != nil || err != nil {
			t.Fatalf("staged round ran a pass (%v) or failed: %v", res != nil, err)
		}
	}
	got, err := staged.Reclean()
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalResults(t, "folded rounds", got, want)
	var a, b bytes.Buffer
	if err := live.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := staged.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("folded snapshot differs from the live one:\nlive   %s\nfolded %s", a.Bytes(), b.Bytes())
	}
}
