package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"holoclean"
)

// storeConfig is the durable-server configuration the recovery tests
// share: a tight checkpoint budget so scripts cross checkpoint
// boundaries, and a mid-script relearn so recovery replays through a
// retrain.
func storeConfig(dir string, workers int) Config {
	return Config{
		Workers:         workers,
		CheckpointEvery: 2,
		StoreDir:        dir,
		Options: func() *holoclean.Options {
			o := holoclean.DefaultOptions()
			o.RelearnEvery = 2
			return &o
		}(),
	}
}

// crashStep is one scripted mutating request. Every step carries a
// deterministic op_id, so a retry after an ambiguous crash is
// recognized instead of double-applied.
type crashStep struct {
	kind string // "deltas" or "feedback"
	ops  []DeltaOp
}

// crashScript is the mixed delta/feedback/relearn workload of the
// recovery property test. With RelearnEvery=2 the steps at rounds 2 and
// 4 retrain weights, so a kill point can fall on either side of a
// relearn boundary.
func crashScript(prefix string) []crashStep {
	p := prefix
	return []crashStep{
		{kind: "deltas", ops: []DeltaOp{
			{Op: "upsert", Row: 1, Values: []string{p + "-k001", p + "-mut1"}},
			{Op: "upsert", Row: -1, Values: []string{p + "-k900", p + "-v900"}},
		}},
		{kind: "feedback"},
		{kind: "deltas", ops: []DeltaOp{
			{Op: "delete", Row: 7},
			{Op: "upsert", Row: 3, Values: []string{p + "-k002", p + "-mut2"}},
		}},
		{kind: "deltas", ops: []DeltaOp{
			{Op: "upsert", Row: 12, Values: []string{p + "-k003", p + "-mut3"}},
		}},
		{kind: "deltas", ops: []DeltaOp{
			{Op: "delete", Row: 2},
			{Op: "upsert", Row: -1, Values: []string{p + "-k901", p + "-v901"}},
		}},
	}
}

// runStep drives one script step against a server, returning whether
// the server acknowledged it as a duplicate. Feedback steps confirm the
// head of the review queue (deterministic by the review ordering
// contract).
func runStep(t *testing.T, tc *testClient, id string, i int, st crashStep) (duplicate bool) {
	t.Helper()
	opID := fmt.Sprintf("op-%d", i)
	switch st.kind {
	case "deltas":
		var dres DeltaResponse
		tc.mustJSON("POST", "/sessions/"+id+"/deltas", DeltaRequest{Ops: st.ops, OpID: opID}, &dres)
		return dres.Duplicate
	case "feedback":
		var review RepairPage
		tc.mustJSON("GET", "/sessions/"+id+"/review?threshold=1.01&limit=1", nil, &review)
		if len(review.Items) == 0 {
			t.Fatal("empty review queue in script")
		}
		pick := review.Items[0]
		var fres FeedbackResponse
		status, raw, err := tc.jsonErr("POST", "/sessions/"+id+"/feedback", FeedbackRequest{
			Items: []FeedbackItem{{Tuple: pick.Tuple, Attr: pick.Attr, Value: pick.New}},
			OpID:  opID,
		}, &fres)
		if err != nil {
			t.Fatal(err)
		}
		if status >= 300 {
			t.Fatalf("feedback step %d: status %d: %s", i, status, raw)
		}
		return fres.Duplicate
	}
	t.Fatalf("unknown step kind %q", st.kind)
	return false
}

// finalState fetches the byte-exact observables: the full repair list
// and the repaired CSV.
func finalState(t *testing.T, tc *testClient, id string) ([]RepairInfo, []byte) {
	t.Helper()
	repairs := tc.allRepairs(id)
	status, csv := tc.do("GET", "/sessions/"+id+"/dataset", "", nil)
	if status != http.StatusOK {
		t.Fatalf("dataset: status %d", status)
	}
	return repairs, csv
}

// TestServeCrashRecoveryProperty is the acceptance property test: a
// mixed delta/feedback/relearn script is cut by a simulated hard crash
// (no shutdown hook runs, no checkpoint is cut, and the log grows a
// torn half-record) at a randomized point; a fresh server recovers the
// store, the client retries its last ambiguous request (exactly-once
// via op_id) and replays the remainder; the final repairs and exported
// CSV must be byte-identical to an uninterrupted control run — at
// Workers 1 and 4.
func TestServeCrashRecoveryProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			script := crashScript("cr")
			csv := fixtureCSV("cr", 10)

			// Control: the whole script, uninterrupted, no store.
			_, ctl := newTestServer(t, Config{Workers: workers, Options: storeConfig("", workers).Options})
			ctlInfo := ctl.create("control", csv, 11, 2)
			for i, st := range script {
				if runStep(t, ctl, ctlInfo.ID, i, st) {
					t.Fatalf("control step %d flagged duplicate", i)
				}
			}
			wantRepairs, wantCSV := finalState(t, ctl, ctlInfo.ID)

			rng := rand.New(rand.NewSource(int64(workers)*1000 + 7))
			for trial := 0; trial < 2; trial++ {
				dir := t.TempDir()
				kill := 1 + rng.Intn(len(script)) // after create, before the end

				sv1, err := New(storeConfig(dir, workers))
				if err != nil {
					t.Fatal(err)
				}
				ts1 := httptest.NewServer(sv1)
				tc1 := &testClient{t: t, base: ts1.URL, c: ts1.Client()}
				info := tc1.create("victim", csv, 11, 2)
				for i := 0; i < kill; i++ {
					if runStep(t, tc1, info.ID, i, script[i]) {
						t.Fatalf("pre-crash step %d flagged duplicate", i)
					}
				}
				// Hard crash: no Shutdown, no checkpoint — just drop the
				// process state and tear the tail of the log, as a kill -9
				// mid-append would.
				ts1.Close()
				sv1.Close()
				walPath := filepath.Join(dir, info.ID+".wal")
				f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte("w1 deadbeef 99 2 {\"torn\":")); err != nil {
					t.Fatal(err)
				}
				f.Close()

				// Restart: recovery must rebuild the acknowledged state.
				sv2, err := New(storeConfig(dir, workers))
				if err != nil {
					t.Fatal(err)
				}
				ts2 := httptest.NewServer(sv2)
				tc2 := &testClient{t: t, base: ts2.URL, c: ts2.Client()}
				var listed []SessionInfo
				tc2.mustJSON("GET", "/sessions", nil, &listed)
				if len(listed) != 1 || listed[0].ID != info.ID {
					t.Fatalf("kill@%d: recovered listing %+v", kill, listed)
				}
				// The client's view: its last request was acked, but a
				// careful client retries it anyway after a crash (it
				// cannot know the ack raced the crash). The op_id makes
				// the retry a no-op.
				if !runStep(t, tc2, info.ID, kill-1, script[kill-1]) {
					// A feedback retry may instead surface as a 400 —
					// but with op_ids it must be a clean duplicate ack.
					t.Fatalf("kill@%d: retry of step %d was re-applied, not deduplicated", kill, kill-1)
				}
				for i := kill; i < len(script); i++ {
					if runStep(t, tc2, info.ID, i, script[i]) {
						t.Fatalf("kill@%d: fresh step %d flagged duplicate", kill, i)
					}
				}
				gotRepairs, gotCSV := finalState(t, tc2, info.ID)
				if len(gotRepairs) != len(wantRepairs) {
					t.Fatalf("kill@%d: %d repairs after recovery, want %d", kill, len(gotRepairs), len(wantRepairs))
				}
				for j := range wantRepairs {
					if gotRepairs[j] != wantRepairs[j] {
						t.Fatalf("kill@%d: repair %d differs:\nrecovered %+v\ncontrol   %+v", kill, j, gotRepairs[j], wantRepairs[j])
					}
				}
				if string(gotCSV) != string(wantCSV) {
					t.Fatalf("kill@%d: repaired CSV differs from uninterrupted control", kill)
				}
				ts2.Close()
				sv2.Close()
			}
		})
	}
}

// TestServeCrashBeforeFirstCheckpoint kills the daemon before the
// initial clean's checkpoint could land (simulated by a log holding
// only the create record): recovery must replay from genesis — CSV
// parse, constraints, full clean — and serve the same repairs.
func TestServeCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	csv := fixtureCSV("ge", 6)

	sv1, err := New(storeConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(sv1)
	tc1 := &testClient{t: t, base: ts1.URL, c: ts1.Client()}
	info := tc1.create("genesis", csv, 5, 0)
	want := tc1.allRepairs(info.ID)
	ts1.Close()
	sv1.Close()

	// Strip everything after the create record, as if the crash hit
	// between the create append and the checkpoint append.
	walPath := filepath.Join(dir, info.ID+".wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for i, b := range data {
		if b == '\n' {
			nl = i + 1
			break
		}
	}
	if err := os.WriteFile(walPath, data[:nl], 0o644); err != nil {
		t.Fatal(err)
	}

	sv2, err := New(storeConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(sv2)
	defer ts2.Close()
	defer sv2.Close()
	tc2 := &testClient{t: t, base: ts2.URL, c: ts2.Client()}
	got := tc2.allRepairs(info.ID)
	if len(got) != len(want) {
		t.Fatalf("genesis replay: %d repairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("genesis replay: repair %d differs", i)
		}
	}
}

// TestServeGoldenStoreRecovers is the cross-version test behind the
// "WAL format untouched" claim. testdata/golden_store/s1.wal was written
// by the commit before the serve tier's apply and persistence paths
// were unified (create, checkpoint, deltas op-0, feedback op-1, relearn,
// deltas op-2, checkpoint carrying the op-0..2 window, deltas op-3,
// relearn — crashScript("gd")[:4] at CheckpointEvery 3, hard-stopped),
// with the repairs and CSV that server was serving recorded beside it
// (the repair probabilities were re-recorded when independent shards
// moved from sampled to closed-form marginals; the log, the repair set
// and the CSV are the original ones).
// Today's code must recover the log to exactly those bytes, recognize
// retries from both the replayed tail and the checkpointed window, and
// — after converging the log itself — boot it again evicted, with a
// truthful listing and an id space that does not collide.
func TestServeGoldenStoreRecovers(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_store", "s1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join("testdata", "golden_store", "want.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rawRepairs, err := os.ReadFile(filepath.Join("testdata", "golden_store", "want_repairs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantRepairs []RepairInfo
	if err := json.Unmarshal(rawRepairs, &wantRepairs); err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, tc *testClient, stage string) {
		t.Helper()
		gotRepairs, gotCSV := finalState(t, tc, "s1")
		if !slices.Equal(gotRepairs, wantRepairs) {
			t.Fatalf("%s: repairs differ from the recorded ones:\ngot  %+v\nwant %+v", stage, gotRepairs, wantRepairs)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("%s: repaired CSV differs from the recorded one", stage)
		}
	}
	script := crashScript("gd")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "s1.wal"), golden, 0o644); err != nil {
				t.Fatal(err)
			}
			sv1, tc1 := newTestServer(t, Config{Workers: workers, StoreDir: dir})
			check(t, tc1, "tail replay")
			for _, i := range []int{3, 0} { // op-3 rode in the tail, op-0 only in the checkpoint
				if !runStep(t, tc1, "s1", i, script[i]) {
					t.Fatalf("retry of op-%d was re-applied, not deduplicated", i)
				}
			}
			if err := sv1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			_, tc2 := newTestServer(t, Config{Workers: workers, StoreDir: dir})
			var listed []SessionInfo
			tc2.mustJSON("GET", "/sessions", nil, &listed)
			if len(listed) != 1 || !listed[0].Evicted || listed[0].Name != "golden" ||
				listed[0].Tuples != 50 || listed[0].Repairs != len(wantRepairs) || listed[0].Confirmed != 1 {
				t.Fatalf("listing after converge + reboot: %+v", listed)
			}
			check(t, tc2, "checkpoint restore")
			if fresh := tc2.create("younger", fixtureCSV("g2", 4), 1, 0); fresh.ID == "s1" {
				t.Fatal("fresh session reused the recovered id")
			}
		})
	}
}

// TestServeShutdownDuringReclean pins the graceful-drain contract: a
// SIGTERM-equivalent Shutdown racing an in-flight delta reclean lets
// the reclean finish (its WAL append lands before the ack), refuses new
// jobs with 503 while draining, and leaves a store a fresh server
// recovers to exactly the post-reclean state.
func TestServeShutdownDuringReclean(t *testing.T) {
	dir := t.TempDir()
	csv := fixtureCSV("sd", 12)
	sv1, err := New(storeConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(sv1)
	tc1 := &testClient{t: t, base: ts1.URL, c: ts1.Client()}
	info := tc1.create("drainee", csv, 9, 0)

	ops := DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 1, Values: []string{"sd-k001", "sd-mid-shutdown"}},
		{Op: "delete", Row: 8},
	}, OpID: "drain-op"}
	var dres DeltaResponse
	inflight := make(chan error, 1)
	go func() {
		status, raw, err := tc1.jsonErr("POST", "/sessions/"+info.ID+"/deltas", ops, &dres)
		if err == nil && status >= 300 {
			err = fmt.Errorf("delta during shutdown: status %d: %s", status, raw)
		}
		inflight <- err
	}()
	// Let the delta enter the job queue, then drain. The sleep is a
	// scheduling nudge, not a correctness requirement: if Shutdown wins
	// the race the delta gets 503 and the store holds the pre-delta
	// state — also consistent, but not what this test wants to observe.
	time.Sleep(30 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight delta: %v", err)
	}
	if dres.Applied != 2 {
		t.Fatalf("in-flight delta response: %+v", dres)
	}
	// New jobs during/after the drain are refused with 503.
	status, _, err := tc1.jsonErr("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: ops.Ops, OpID: "late"}, nil)
	if err == nil && status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain delta: status %d, want 503", status)
	}
	ts1.Close()

	// Control: the same two requests on a fresh, store-less server.
	_, ctl := newTestServer(t, Config{Workers: 1})
	ctlInfo := ctl.create("ctl", csv, 9, 0)
	ctl.mustJSON("POST", "/sessions/"+ctlInfo.ID+"/deltas", DeltaRequest{Ops: ops.Ops}, nil)
	wantRepairs, wantCSV := finalState(t, ctl, ctlInfo.ID)

	sv2, err := New(storeConfig(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(sv2)
	defer ts2.Close()
	defer sv2.Close()
	tc2 := &testClient{t: t, base: ts2.URL, c: ts2.Client()}
	gotRepairs, gotCSV := finalState(t, tc2, info.ID)
	if len(gotRepairs) != len(wantRepairs) {
		t.Fatalf("recovered %d repairs, want %d", len(gotRepairs), len(wantRepairs))
	}
	for i := range wantRepairs {
		if gotRepairs[i] != wantRepairs[i] {
			t.Fatalf("recovered repair %d differs", i)
		}
	}
	if string(gotCSV) != string(wantCSV) {
		t.Fatal("recovered CSV differs from control")
	}
}

// TestServeIdempotentRetry pins the duplicate-detection contract on the
// live path (no crash involved): the same op_id acks without
// re-applying, for deltas and feedback alike — also when the session
// was evicted between the send and the retry: the dedup window rides in
// the checkpoint record.
func TestServeIdempotentRetry(t *testing.T) {
	sv, tc := newTestServer(t, storeConfig(t.TempDir(), 1))
	info := tc.create("idem", fixtureCSV("id", 8), 3, 0)

	req := DeltaRequest{Ops: []DeltaOp{
		{Op: "delete", Row: 5},
	}, OpID: "batch-1"}
	var first, second DeltaResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", req, &first)
	if first.Duplicate || first.Tuples != 39 {
		t.Fatalf("first apply: %+v", first)
	}
	if n := sv.evictIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", req, &second)
	if !second.Duplicate {
		t.Fatal("retry was not deduplicated")
	}
	if second.Tuples != first.Tuples {
		t.Fatalf("retry re-applied the delete: %d tuples, want %d", second.Tuples, first.Tuples)
	}

	var review RepairPage
	tc.mustJSON("GET", "/sessions/"+info.ID+"/review?threshold=1.01&limit=1", nil, &review)
	if len(review.Items) == 0 {
		t.Fatal("empty review queue")
	}
	pick := review.Items[0]
	freq := FeedbackRequest{Items: []FeedbackItem{{Tuple: pick.Tuple, Attr: pick.Attr, Value: pick.New}}, OpID: "fb-1"}
	var f1, f2 FeedbackResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/feedback", freq, &f1)
	if f1.Duplicate || f1.Confirmed != 1 {
		t.Fatalf("first feedback: %+v", f1)
	}
	// Without dedup this retry would be a 400 (duplicate confirmation);
	// with it, a clean duplicate ack.
	tc.mustJSON("POST", "/sessions/"+info.ID+"/feedback", freq, &f2)
	if !f2.Duplicate || f2.Confirmed != 1 {
		t.Fatalf("feedback retry: %+v", f2)
	}
}

// TestServeEphemeralStore: a server configured without StoreDir runs the
// same WAL-backed lifecycle in a temporary directory of its own — the
// session's log is on disk there, eviction and revive go through it
// (dedup window included), and Close removes the directory.
func TestServeEphemeralStore(t *testing.T) {
	sv, tc := newTestServer(t, Config{Workers: 1})
	var health HealthResponse
	tc.mustJSON("GET", "/healthz", nil, &health)
	if health.Store == nil || !health.Store.Enabled || health.Store.Dir == "" {
		t.Fatalf("healthz without StoreDir reports no store: %+v", health.Store)
	}
	dir := health.Store.Dir
	info := tc.create("eph", fixtureCSV("eph", 8), 3, 0)
	if info.Store == nil || info.Store.WALBytes == 0 {
		t.Fatalf("listing has no store section: %+v", info.Store)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID+".wal")); err != nil {
		t.Fatalf("session log missing from the ephemeral store: %v", err)
	}

	req := DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 5}}, OpID: "batch-1"}
	var first, retry DeltaResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", req, &first)
	want := tc.allRepairs(info.ID)
	if n := sv.evictIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if got := tc.allRepairs(info.ID); !slices.Equal(got, want) {
		t.Fatal("repairs differ after revive through the ephemeral log")
	}
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", req, &retry)
	if !retry.Duplicate || retry.Tuples != first.Tuples {
		t.Fatalf("retry after revive: %+v, want a duplicate ack at %d tuples", retry, first.Tuples)
	}

	sv.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("ephemeral store %s survived Close (stat err: %v)", dir, err)
	}
}

// TestServeRemoveSurfacesError is the regression test for the silent
// os.Remove in tenant removal: when the on-disk state cannot be
// deleted, DELETE must fail (500) and keep the session registered —
// and succeed once the obstacle is gone.
func TestServeRemoveSurfacesError(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir, 1)
	cfg.IdleTimeout, cfg.SweepEvery = time.Hour, time.Hour
	sv, tc := newTestServer(t, cfg)
	info := tc.create("doomed", fixtureCSV("rm", 6), 1, 0)
	// Evict so the tenant holds no live session.
	if n := sv.evictIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	// Make the log undeletable: replace it with a non-empty directory
	// (robust even when tests run as root, unlike permission bits).
	p := filepath.Join(dir, info.ID+".wal")
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(p, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	status, raw := tc.do("DELETE", "/sessions/"+info.ID, "", nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("DELETE with undeletable file: status %d: %s", status, raw)
	}
	// The tenant must still exist: reporting it gone while its durable
	// state survives would resurrect it after a restart.
	if status, _ := tc.do("GET", "/sessions/"+info.ID, "", nil); status != http.StatusOK {
		t.Fatalf("session vanished despite failed delete: status %d", status)
	}
	// Clear the obstacle; the retry completes the removal.
	if err := os.RemoveAll(p); err != nil {
		t.Fatal(err)
	}
	if status, raw := tc.do("DELETE", "/sessions/"+info.ID, "", nil); status != http.StatusNoContent {
		t.Fatalf("retry DELETE: status %d: %s", status, raw)
	}
	if status, _ := tc.do("GET", "/sessions/"+info.ID, "", nil); status != http.StatusNotFound {
		t.Fatalf("session survived successful delete: status %d", status)
	}
}

// TestServeStoreStatsAndEviction covers the operator surface: session
// listings expose wal_bytes / ops_since_checkpoint / last_checkpoint_at,
// /healthz aggregates them, store-mode eviction checkpoints + compacts
// the log, and a restore serves byte-identical repairs.
func TestServeStoreStatsAndEviction(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir, 1)
	cfg.IdleTimeout, cfg.SweepEvery = time.Hour, time.Hour
	sv, tc := newTestServer(t, cfg)
	info := tc.create("gauged", fixtureCSV("st", 8), 3, 0)
	if info.Store == nil || info.Store.WALBytes == 0 {
		t.Fatalf("create info missing store stats: %+v", info.Store)
	}
	if info.Store.LastCheckpointAt == nil {
		t.Fatal("no checkpoint stamp after create (initial checkpoint missing)")
	}

	var dres DeltaResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 2, Values: []string{"st-k000", "st-x"}},
	}, OpID: "d1"}, &dres)
	var got SessionInfo
	tc.mustJSON("GET", "/sessions/"+info.ID, nil, &got)
	if got.Store == nil || got.Store.OpsSinceCheckpoint != 1 {
		t.Fatalf("ops_since_checkpoint after one delta: %+v", got.Store)
	}
	preEvict := tc.allRepairs(info.ID)

	var health HealthResponse
	tc.mustJSON("GET", "/healthz", nil, &health)
	if health.Store == nil || !health.Store.Enabled || health.Store.WALBytes == 0 {
		t.Fatalf("healthz store aggregate: %+v", health.Store)
	}

	// Store-mode eviction: checkpoint + compact; restore is exact.
	if n := sv.evictIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	tc.mustJSON("GET", "/sessions/"+info.ID, nil, &got)
	if !got.Evicted || got.Store == nil || got.Store.OpsSinceCheckpoint != 0 {
		t.Fatalf("listing after store eviction: evicted=%v store=%+v", got.Evicted, got.Store)
	}
	// Eviction compacts down to exactly one record: the checkpoint.
	if n := countRecords(t, filepath.Join(dir, info.ID+".wal")); n != 1 {
		t.Fatalf("log holds %d records after eviction, want 1", n)
	}
	after := tc.allRepairs(info.ID)
	if len(after) == 0 || len(after) != len(preEvict) {
		t.Fatalf("restore served %d repairs, want %d", len(after), len(preEvict))
	}
	for i := range after {
		if after[i] != preEvict[i] {
			t.Fatalf("restore differs at repair %d: %+v vs %+v", i, after[i], preEvict[i])
		}
	}
}

// countRecords counts newline-framed records of a log file.
func countRecords(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}

// TestServeStoreCompactorSweep drives the background compactor policy
// directly: a tenant that went idle with an over-budget tail gets a
// checkpoint (TryLock path) and its log compacted, while the tenant
// keeps serving reads concurrently.
func TestServeStoreCompactorSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := storeConfig(dir, 1)
	cfg.CheckpointEvery = 3
	cfg.CompactAfterBytes = 1    // compact any debt
	cfg.CompactEvery = time.Hour // sweeps are driven manually below
	sv, tc := newTestServer(t, cfg)
	info := tc.create("swept", fixtureCSV("cp", 8), 3, 0)

	// Two ops: under the budget of 3, so no inline checkpoint happens…
	for i := 0; i < 2; i++ {
		tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: []DeltaOp{
			{Op: "upsert", Row: i, Values: []string{fmt.Sprintf("cp-k%03d", i), fmt.Sprintf("cp-n%d", i)}},
		}}, nil)
	}
	// …but with budget 1 the sweep must checkpoint and compact, while
	// readers hammer the session.
	sv.cfg.CheckpointEvery = 1
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tc.doErr("GET", "/sessions/"+info.ID+"/repairs?limit=3", "", nil)
				tc.doErr("GET", "/sessions/"+info.ID, "", nil)
			}
		}()
	}
	sv.compactSweep()
	close(stop)
	readers.Wait()

	var got SessionInfo
	tc.mustJSON("GET", "/sessions/"+info.ID, nil, &got)
	if got.Store == nil || got.Store.OpsSinceCheckpoint != 0 {
		t.Fatalf("sweep did not checkpoint: %+v", got.Store)
	}
	// The log must have been compacted down to (checkpoint, nothing).
	if n := countRecords(t, filepath.Join(dir, info.ID+".wal")); n != 1 {
		t.Fatalf("compacted log has %d records, want 1 (the checkpoint)", n)
	}
}

// TestServeCheckpointRefusesStagedTailDelete: deleting the last row touches
// no surviving slot, yet it is a staged mutation — a checkpoint cut before
// the reclean folds it in would pair the shrunk rows with the previous
// pass's summary. The envelope guard must see it.
func TestServeCheckpointRefusesStagedTailDelete(t *testing.T) {
	sv, tc := newTestServer(t, Config{Workers: 1})
	info := tc.create("tail", fixtureCSV("tail", 6), 1, 0)
	ten := sv.lookup(info.ID)
	ten.mu.Lock()
	defer ten.mu.Unlock()
	if err := sv.checkpointLocked(ten); err != nil {
		t.Fatalf("checkpoint of a settled session: %v", err)
	}
	if err := ten.session.Delete(ten.session.NumTuples() - 1); err != nil {
		t.Fatal(err)
	}
	if err := sv.checkpointLocked(ten); err == nil || !strings.Contains(err.Error(), "staged mutations") {
		t.Fatalf("checkpoint with the last row's deletion staged: err = %v, want a staged-mutations refusal", err)
	}
	if _, err := ten.session.Reclean(); err != nil {
		t.Fatal(err)
	}
	if err := sv.checkpointLocked(ten); err != nil {
		t.Fatalf("checkpoint after the reclean: %v", err)
	}
}
