package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"holoclean"
)

// fixtureCSV builds a Key,Val relation of conflict groups: per group,
// four tuples agree on the value and one dissents — the canonical FD
// workload. prefix varies content across tenants.
func fixtureCSV(prefix string, groups int) string {
	var b strings.Builder
	b.WriteString("Key,Val\n")
	for g := 0; g < groups; g++ {
		k := fmt.Sprintf("%s-k%03d", prefix, g)
		good := fmt.Sprintf("%s-v%03d", prefix, g)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, "%s,%s\n", k, good)
		}
		fmt.Fprintf(&b, "%s,%s-bad%03d\n", k, prefix, g)
	}
	return b.String()
}

const fixtureDCs = "fd: t1&t2&EQ(t1.Key,t2.Key)&IQ(t1.Val,t2.Val)\n"

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t    *testing.T
	base string
	c    *http.Client
}

// doErr is the goroutine-safe request primitive: it reports transport
// failures as errors instead of t.Fatal (which must not be called off
// the test goroutine).
func (tc *testClient) doErr(method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, tc.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := tc.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

func (tc *testClient) do(method, path, contentType string, body []byte) (int, []byte) {
	tc.t.Helper()
	status, out, err := tc.doErr(method, path, contentType, body)
	if err != nil {
		tc.t.Fatal(err)
	}
	return status, out
}

// jsonErr is the goroutine-safe JSON round trip.
func (tc *testClient) jsonErr(method, path string, reqBody, out any) (int, []byte, error) {
	var body []byte
	if reqBody != nil {
		var err error
		if body, err = json.Marshal(reqBody); err != nil {
			return 0, nil, err
		}
	}
	status, raw, err := tc.doErr(method, path, "application/json", body)
	if err != nil {
		return 0, nil, err
	}
	if out != nil && status < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			return status, raw, fmt.Errorf("%s %s: decoding %q: %w", method, path, raw, err)
		}
	}
	return status, raw, nil
}

func (tc *testClient) json(method, path string, reqBody, out any) (int, []byte) {
	tc.t.Helper()
	status, raw, err := tc.jsonErr(method, path, reqBody, out)
	if err != nil {
		tc.t.Fatal(err)
	}
	return status, raw
}

func (tc *testClient) mustJSON(method, path string, reqBody, out any) {
	tc.t.Helper()
	status, raw := tc.json(method, path, reqBody, out)
	if status >= 300 {
		tc.t.Fatalf("%s %s: status %d: %s", method, path, status, raw)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv)
	t.Cleanup(func() { ts.Close(); sv.Close() })
	return sv, &testClient{t: t, base: ts.URL, c: ts.Client()}
}

// create makes a session over JSON and returns its info.
func (tc *testClient) create(name, csv string, seed int64, relearnEvery int) SessionInfo {
	tc.t.Helper()
	var info SessionInfo
	tc.mustJSON("POST", "/sessions", CreateRequest{
		Name: name, CSV: csv, Constraints: fixtureDCs, Seed: seed, RelearnEvery: relearnEvery,
	}, &info)
	if info.ID == "" {
		tc.t.Fatal("create returned no session id")
	}
	return info
}

// allRepairsErr fetches the full stable-ordered repair list
// (goroutine-safe).
func (tc *testClient) allRepairsErr(id string) ([]RepairInfo, error) {
	var page RepairPage
	status, raw, err := tc.jsonErr("GET", "/sessions/"+id+"/repairs", nil, &page)
	if err != nil {
		return nil, err
	}
	if status >= 300 {
		return nil, fmt.Errorf("GET repairs of %s: status %d: %s", id, status, raw)
	}
	return page.Items, nil
}

// allRepairs fetches the full stable-ordered repair list.
func (tc *testClient) allRepairs(id string) []RepairInfo {
	tc.t.Helper()
	items, err := tc.allRepairsErr(id)
	if err != nil {
		tc.t.Fatal(err)
	}
	return items
}

// TestServeEndToEnd drives the whole lifecycle over HTTP: multipart
// create, status, repairs, a coalesced delta batch, the review queue,
// a feedback round, the repaired CSV, and deletion.
func TestServeEndToEnd(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 1})

	// Multipart create, the curl shape.
	// 60 conflict groups (300 tuples) so the independent-regime plan has
	// several 256-cell batches and delta reclean reuse is observable.
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, _ := mw.CreateFormFile("data", "dirty.csv")
	io.WriteString(fw, fixtureCSV("e2e", 60))
	fw, _ = mw.CreateFormFile("dcs", "constraints.txt")
	io.WriteString(fw, fixtureDCs)
	mw.WriteField("name", "end-to-end")
	mw.WriteField("seed", "7")
	mw.Close()
	status, raw := tc.do("POST", "/sessions", mw.FormDataContentType(), form.Bytes())
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	var info SessionInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "end-to-end" || info.Tuples != 300 || info.Repairs == 0 {
		t.Fatalf("create info: %+v", info)
	}
	id := info.ID

	// Status and listing agree.
	var got SessionInfo
	tc.mustJSON("GET", "/sessions/"+id, nil, &got)
	if got.Repairs != info.Repairs || got.Stats == nil {
		t.Fatalf("status: %+v", got)
	}
	var list []SessionInfo
	tc.mustJSON("GET", "/sessions", nil, &list)
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("list: %+v", list)
	}

	// Paginated repairs: page through with limit 3 and reassemble.
	full := tc.allRepairs(id)
	var paged []RepairInfo
	for off := 0; ; off += 3 {
		var page RepairPage
		tc.mustJSON("GET", fmt.Sprintf("/sessions/%s/repairs?offset=%d&limit=3", id, off), nil, &page)
		paged = append(paged, page.Items...)
		if off+3 >= page.Total {
			break
		}
	}
	if len(paged) != len(full) {
		t.Fatalf("pagination reassembled %d repairs, want %d", len(paged), len(full))
	}
	for i := range full {
		if paged[i] != full[i] {
			t.Fatalf("pagination unstable at %d: %+v vs %+v", i, paged[i], full[i])
		}
	}

	// A delta batch: a fresh conflict, an append, a delete — coalesced
	// into one reclean that reuses shards.
	var dres DeltaResponse
	tc.mustJSON("POST", "/sessions/"+id+"/deltas", DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 1, Values: []string{"e2e-k001", "e2e-freshbad"}},
		{Op: "upsert", Row: -1, Values: []string{"e2e-k900", "e2e-v900"}},
		{Op: "delete", Row: 14},
	}}, &dres)
	if dres.Applied != 3 || dres.Tuples != 300 {
		t.Fatalf("delta response: %+v", dres)
	}
	if dres.Stats == nil || dres.Stats.ShardsReused == 0 {
		t.Fatalf("delta reclean reused no shards: %+v", dres.Stats)
	}

	// NDJSON streaming flavor of the same endpoint.
	nd := `{"op":"upsert","row":2,"values":["e2e-k001","e2e-ndjson-bad"]}` + "\n" +
		`{"op":"delete","row":9}` + "\n"
	status, raw = tc.do("POST", "/sessions/"+id+"/deltas", "application/x-ndjson", []byte(nd))
	if status != http.StatusOK {
		t.Fatalf("ndjson delta: status %d: %s", status, raw)
	}

	// Review queue: ascending probability, below-threshold only.
	var review RepairPage
	tc.mustJSON("GET", "/sessions/"+id+"/review?threshold=1.01", nil, &review)
	if review.Total == 0 {
		t.Fatal("review queue empty at threshold 1.01")
	}
	for i := 1; i < len(review.Items); i++ {
		if review.Items[i-1].Probability > review.Items[i].Probability {
			t.Fatal("review queue not sorted by ascending probability")
		}
	}

	// Confirm the least-confident repair; the confirmation must stick.
	pick := review.Items[0]
	var fres FeedbackResponse
	tc.mustJSON("POST", "/sessions/"+id+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tuple: pick.Tuple, Attr: pick.Attr, Value: pick.New},
	}}, &fres)
	if fres.Confirmed != 1 {
		t.Fatalf("feedback response: %+v", fres)
	}
	status, raw = tc.do("GET", "/sessions/"+id+"/dataset", "", nil)
	if status != http.StatusOK {
		t.Fatalf("dataset: status %d", status)
	}
	wantCell := pick.New
	foundRow := false
	for i, line := range strings.Split(string(raw), "\n") {
		if i-1 == pick.Tuple { // header offset
			foundRow = strings.Contains(line, wantCell)
		}
	}
	if !foundRow {
		t.Fatalf("confirmed value %q not present in repaired row %d", wantCell, pick.Tuple)
	}

	// Delete and 404 afterward.
	if status, _ := tc.do("DELETE", "/sessions/"+id, "", nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	if status, _ := tc.do("GET", "/sessions/"+id, "", nil); status != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", status)
	}
}

// writerScript is the deterministic operation sequence each writer
// client drives against its session, expressed once so the HTTP run and
// the serial library replay are guaranteed to match.
type writerScript struct {
	prefix string
	groups int
	seed   int64
	// batch1/batch2 are the delta batches; feedback confirms the head
	// of the review queue between them.
	batch1, batch2 []DeltaOp
	threshold      float64
}

func script(i int) writerScript {
	p := fmt.Sprintf("w%d", i)
	return writerScript{
		prefix: p,
		groups: 12 + i,
		seed:   int64(100 + i),
		batch1: []DeltaOp{
			{Op: "upsert", Row: 1, Values: []string{p + "-k001", p + "-mut1"}},
			{Op: "upsert", Row: -1, Values: []string{p + "-k800", p + "-v800"}},
			{Op: "delete", Row: 7},
		},
		batch2: []DeltaOp{
			{Op: "upsert", Row: 3, Values: []string{p + "-k002", p + "-mut2"}},
			{Op: "delete", Row: 11},
		},
		threshold: 1.01,
	}
}

// replaySerial drives a script through the library directly — the
// reference schedule the concurrent server run must match byte for byte.
func replaySerial(t *testing.T, sc writerScript, opts holoclean.Options) *holoclean.Result {
	t.Helper()
	ds, err := holoclean.ReadCSV(strings.NewReader(fixtureCSV(sc.prefix, sc.groups)), "")
	if err != nil {
		t.Fatal(err)
	}
	constraints, err := holoclean.ParseConstraints(strings.NewReader(fixtureDCs))
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = sc.seed
	s, err := holoclean.NewSession(ds, constraints, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Clean(); err != nil {
		t.Fatal(err)
	}
	apply := func(ops []DeltaOp) *holoclean.Result {
		for _, op := range ops {
			switch op.Op {
			case "upsert":
				_, err = s.Upsert(op.Row, op.Values)
			case "delete":
				err = s.Delete(op.Row)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Reclean()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := apply(sc.batch1)
	low := res.LowConfidenceRepairs(sc.threshold)
	if len(low) == 0 {
		t.Fatalf("%s: empty review queue in reference run", sc.prefix)
	}
	pick := low[0]
	if _, err := s.Feedback([]holoclean.Feedback{{Cell: pick.Cell, Value: pick.New}}); err != nil {
		t.Fatal(err)
	}
	return apply(sc.batch2)
}

// TestServeConcurrentClients is the concurrency acceptance test: eight
// clients — four writers driving distinct sessions through deltas,
// review and feedback, interleaved with four readers hammering the read
// endpoints — run against a durable (StoreDir) server under the race
// detector. Mid-script, at a barrier after the feedback round, two
// tenants are evicted and restored, and then the entire server is
// hard-crashed (no shutdown hook) and a fresh server recovers every
// session from the store — replaying the sessions whose logs carry
// un-checkpointed tails; the script's second half runs against the
// recovered server while the background compaction policy sweeps
// concurrently with the recleans and reads. The final repairs and
// repaired datasets of every session must be byte-identical to the same
// operations applied serially through the library.
func TestServeConcurrentClients(t *testing.T) {
	const nSessions = 4
	storeDir := t.TempDir()
	cfg := Config{
		Workers:           1,
		MaxConcurrentJobs: 2,
		QueueDepth:        64,
		StoreDir:          storeDir,
		CheckpointEvery:   3, // batch1+feedback leave a 2-op tail → crash recovery replays it
		CompactAfterBytes: 1, // any debt compacts
		CompactEvery:      time.Hour,
		Options: func() *holoclean.Options {
			o := holoclean.DefaultOptions()
			o.RelearnEvery = 2 // the feedback round retrains mid-script
			return &o
		}(),
	}
	sv1, tc1 := newTestServer(t, cfg)
	var cur atomic.Pointer[testClient]
	cur.Store(tc1)

	var idsMu sync.Mutex
	ids := make([]string, nSessions)
	readID := func(i int) string {
		idsMu.Lock()
		defer idsMu.Unlock()
		return ids[i]
	}
	finalRepairs := make([][]RepairInfo, nSessions)
	finalCSV := make([][]byte, nSessions)
	var writers, readers sync.WaitGroup
	writersDone := make(chan struct{})
	errc := make(chan error, nSessions*2)
	var phase1 sync.WaitGroup // writers reaching the mid-script barrier
	phase1.Add(nSessions)
	phase2 := make(chan struct{}) // closed once the crashed server is recovered

	// Writers: create a session, then run the deterministic script.
	for i := 0; i < nSessions; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			sc := script(i)
			barrierDown := false
			defer func() {
				if !barrierDown {
					phase1.Done() // never strand the coordinator on an early error
				}
			}()
			// step runs one JSON exchange off the test goroutine: any
			// transport error or unexpected status goes to errc, never
			// to t.Fatal (unsupported outside the test goroutine).
			step := func(label, method, path string, reqBody, out any) bool {
				status, raw, err := cur.Load().jsonErr(method, path, reqBody, out)
				if err != nil {
					errc <- fmt.Errorf("%s: %s: %w", sc.prefix, label, err)
					return false
				}
				if status >= 300 {
					errc <- fmt.Errorf("%s: %s: status %d: %s", sc.prefix, label, status, raw)
					return false
				}
				return true
			}
			var info SessionInfo
			if !step("create", "POST", "/sessions", CreateRequest{
				Name: sc.prefix, CSV: fixtureCSV(sc.prefix, sc.groups),
				Constraints: fixtureDCs, Seed: sc.seed,
			}, &info) {
				return
			}
			idsMu.Lock()
			ids[i] = info.ID
			idsMu.Unlock()
			var dres DeltaResponse
			if !step("batch1", "POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: sc.batch1}, &dres) {
				return
			}
			var review RepairPage
			if !step("review", "GET", fmt.Sprintf("/sessions/%s/review?threshold=%g&limit=1", info.ID, sc.threshold), nil, &review) {
				return
			}
			if len(review.Items) == 0 {
				errc <- fmt.Errorf("%s: empty review queue", sc.prefix)
				return
			}
			pick := review.Items[0]
			var fres FeedbackResponse
			if !step("feedback", "POST", "/sessions/"+info.ID+"/feedback", FeedbackRequest{Items: []FeedbackItem{
				{Tuple: pick.Tuple, Attr: pick.Attr, Value: pick.New},
			}}, &fres) {
				return
			}
			// Mid-script barrier: the coordinator evicts two tenants,
			// crashes the server, and recovers a fresh one from the
			// store; the second half of the script runs against it.
			barrierDown = true
			phase1.Done()
			<-phase2
			if !step("batch2", "POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: sc.batch2}, &dres) {
				return
			}
			repairs, err := cur.Load().allRepairsErr(info.ID)
			if err != nil {
				errc <- fmt.Errorf("%s: final repairs: %w", sc.prefix, err)
				return
			}
			finalRepairs[i] = repairs
			_, csv, err := cur.Load().doErr("GET", "/sessions/"+info.ID+"/dataset", "", nil)
			if err != nil {
				errc <- fmt.Errorf("%s: final dataset: %w", sc.prefix, err)
				return
			}
			finalCSV[i] = csv
		}(i)
	}

	// Readers: hammer the read path (list, status, review, repairs,
	// health) until every writer is done. Read-only traffic must never
	// block behind running recleans or corrupt anything. Across the
	// mid-script crash window requests simply fail and are retried
	// against whichever server cur points at.
	for i := 0; i < nSessions; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				select {
				case <-writersDone:
					return
				default:
				}
				// Goroutine-safe requests; reader traffic exists to race
				// the read path, so transport errors are not fatal here
				// (writers assert the outcomes that matter).
				tc := cur.Load()
				tc.doErr("GET", "/sessions", "", nil)
				tc.doErr("GET", "/healthz", "", nil)
				if id := readID(i); id != "" {
					tc.doErr("GET", "/sessions/"+id, "", nil)
					tc.doErr("GET", "/sessions/"+id+"/review?threshold=0.99", "", nil)
					tc.doErr("GET", "/sessions/"+id+"/repairs?limit=5", "", nil)
					// The CSV download must be safe against concurrent
					// deltas interning new dictionary values.
					tc.doErr("GET", "/sessions/"+id+"/dataset", "", nil)
				}
				time.Sleep(time.Millisecond)
			}
		}(i)
	}

	// Coordinator: once every writer is parked at the barrier, evict two
	// tenants and verify their restore serves identical repairs, then
	// hard-crash the whole server and bring up a replacement over the
	// same store.
	phase1.Wait()
	for _, i := range []int{0, 1} {
		id := readID(i)
		if id == "" {
			continue // that writer already failed; its error is in errc
		}
		pre, err := tc1.allRepairsErr(id)
		if err != nil {
			t.Fatalf("pre-evict repairs of %s: %v", id, err)
		}
		tn := sv1.lookup(id)
		tn.mu.Lock()
		// Readers may have raced a restore in already; only evict live
		// sessions (an already-evicted one is the same end state).
		if tn.session != nil {
			if err := sv1.evictLocked(tn); err != nil {
				tn.mu.Unlock()
				t.Fatalf("evicting %s: %v", id, err)
			}
		}
		tn.mu.Unlock()
		post, err := tc1.allRepairsErr(id) // transparently restores
		if err != nil {
			t.Fatalf("post-evict repairs of %s: %v", id, err)
		}
		if len(pre) != len(post) {
			t.Fatalf("%s: restore served %d repairs, want %d", id, len(post), len(pre))
		}
		for j := range pre {
			if pre[j] != post[j] {
				t.Fatalf("%s: restore differs at repair %d", id, j)
			}
		}
	}
	// Hard crash: no shutdown hook, no checkpointing — exactly the state
	// the group-committed log guarantees.
	sv1.Close()
	sv2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovering server: %v", err)
	}
	ts2 := httptest.NewServer(sv2)
	t.Cleanup(func() { ts2.Close(); sv2.Close() })
	cur.Store(&testClient{t: t, base: ts2.URL, c: ts2.Client()})
	close(phase2)

	// While the second half runs, sweep the compaction policy
	// concurrently: tenants' logs are checkpointed and compacted while
	// they serve reads and run recleans. (The acceptance criterion for
	// live-safe compaction; record-level safety is pinned in
	// internal/store's race test.)
	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		for {
			select {
			case <-writersDone:
				return
			default:
				sv2.compactSweep()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	writers.Wait()
	close(writersDone)
	readers.Wait()
	<-compactDone
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Serial reference: identical scripts through the library, one at a
	// time. Byte-identical repairs and repaired CSV required.
	for i := 0; i < nSessions; i++ {
		sc := script(i)
		opts := *cfg.Options
		opts.Workers = cfg.Workers
		ref := replaySerial(t, sc, opts)
		wantRepairs := make([]RepairInfo, 0, len(ref.Repairs))
		for _, r := range ref.Repairs {
			wantRepairs = append(wantRepairs, repairInfo(r))
		}
		if len(finalRepairs[i]) != len(wantRepairs) {
			t.Fatalf("%s: %d repairs over HTTP, %d serially", sc.prefix, len(finalRepairs[i]), len(wantRepairs))
		}
		for j := range wantRepairs {
			if finalRepairs[i][j] != wantRepairs[j] {
				t.Fatalf("%s: repair %d differs:\nhttp   %+v\nserial %+v", sc.prefix, j, finalRepairs[i][j], wantRepairs[j])
			}
		}
		var wantCSV bytes.Buffer
		if err := ref.Repaired.WriteCSV(&wantCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(finalCSV[i], wantCSV.Bytes()) {
			t.Fatalf("%s: repaired CSV differs between concurrent HTTP run and serial replay", sc.prefix)
		}
	}
}

// TestServeBackpressure pins the bounded-queue contract: when running
// plus waiting jobs exceed the configured bound, the server answers 429
// with a Retry-After hint instead of queueing without limit, and
// recovers as soon as capacity frees up.
func TestServeBackpressure(t *testing.T) {
	sv, tc := newTestServer(t, Config{Workers: 1, MaxConcurrentJobs: 1, QueueDepth: 0})
	info := tc.create("bp", fixtureCSV("bp", 6), 1, 0)

	// Occupy the only slot like a long-running job would.
	release, err := sv.acquire(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 1, Values: []string{"bp-k001", "bp-x"}},
	}})
	status, raw := tc.do("POST", "/sessions/"+info.ID+"/deltas", "application/json", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d with full queue, want 429: %s", status, raw)
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body %q not an error envelope", raw)
	}
	// Retry-After must be present and positive.
	req, _ := http.NewRequest("POST", tc.base+"/sessions/"+info.ID+"/deltas", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := tc.c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second attempt: status %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After header %q, want a positive estimate", ra)
	}

	// Capacity returns → the same request succeeds.
	release()
	status, raw = tc.do("POST", "/sessions/"+info.ID+"/deltas", "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("status %d after queue drained: %s", status, raw)
	}
}

// TestServeEvictionRestore pins the eviction contract end to end: an
// idle session is snapshotted and released, its listing flips to
// evicted, and the next read transparently restores byte-identical
// state; subsequent deltas behave exactly as if the eviction never
// happened.
func TestServeEvictionRestore(t *testing.T) {
	sv, tc := newTestServer(t, Config{Workers: 1, IdleTimeout: time.Hour, SweepEvery: time.Hour})
	svRef, tcRef := newTestServer(t, Config{Workers: 1})
	_, _ = sv, svRef

	info := tc.create("evict-me", fixtureCSV("ev", 8), 3, 0)
	ref := tcRef.create("reference", fixtureCSV("ev", 8), 3, 0)
	before := tc.allRepairs(info.ID)

	// Evict everything idle as the janitor would.
	if n := sv.evictIdle(time.Now().Add(time.Minute)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	var listed []SessionInfo
	tc.mustJSON("GET", "/sessions", nil, &listed)
	if len(listed) != 1 || !listed[0].Evicted {
		t.Fatalf("listing after eviction: %+v", listed)
	}

	// Reading restores transparently and reproduces the exact repairs.
	after := tc.allRepairs(info.ID)
	if len(after) != len(before) {
		t.Fatalf("restored %d repairs, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("repair %d differs after restore: %+v vs %+v", i, after[i], before[i])
		}
	}

	// Evict again, then mutate: restore-on-write, then identical
	// behavior to a never-evicted twin server.
	sv.evictIdle(time.Now().Add(time.Minute))
	ops := DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 2, Values: []string{"ev-k000", "ev-post-evict"}},
		{Op: "delete", Row: 9},
	}}
	var dres, drefres DeltaResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", ops, &dres)
	tcRef.mustJSON("POST", "/sessions/"+ref.ID+"/deltas", ops, &drefres)
	got, want := tc.allRepairs(info.ID), tcRef.allRepairs(ref.ID)
	if len(got) != len(want) {
		t.Fatalf("post-evict delta: %d repairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-evict repair %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestServeCreateRejectsDuplicateNames: two constraints of one name would
// share learned weights; the create request is refused as malformed.
func TestServeCreateRejectsDuplicateNames(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 1})
	status, raw := tc.json("POST", "/sessions", CreateRequest{
		Name: "dup", CSV: fixtureCSV("du", 4), Seed: 1,
		Constraints: fixtureDCs + "fd: t1&t2&EQ(t1.Val,t2.Val)&IQ(t1.Key,t2.Key)\n",
	}, nil)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), `constraint name \"fd\" is already taken by line 1`) {
		t.Fatalf("duplicate constraint names: status %d: %s", status, raw)
	}
}

// TestServeRejectsNonFiniteNumbers: strconv.ParseFloat accepts NaN and
// ±Inf, which neither the session log nor a JSON response can encode. A
// multipart create with such a tau is refused before any session exists,
// and a review with such a threshold is refused instead of answering 200
// with a body the encoder gave up on.
func TestServeRejectsNonFiniteNumbers(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 1})
	info := tc.create("finite", fixtureCSV("fi", 6), 1, 0)
	for _, v := range []string{"NaN", "Inf", "-Inf", "nan", "+inf"} {
		var form bytes.Buffer
		mw := multipart.NewWriter(&form)
		fw, _ := mw.CreateFormFile("data", "dirty.csv")
		io.WriteString(fw, fixtureCSV("nf", 6))
		fw, _ = mw.CreateFormFile("dcs", "constraints.txt")
		io.WriteString(fw, fixtureDCs)
		mw.WriteField("tau", v)
		mw.Close()
		status, raw := tc.do("POST", "/sessions", mw.FormDataContentType(), form.Bytes())
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "bad tau") {
			t.Errorf("create with tau=%s: status %d: %s", v, status, raw)
		}
		status, raw = tc.do("GET", "/sessions/"+info.ID+"/review?threshold="+url.QueryEscape(v), "", nil)
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "bad threshold") {
			t.Errorf("review with threshold=%s: status %d: %s", v, status, raw)
		}
	}
	var list []SessionInfo
	tc.mustJSON("GET", "/sessions", nil, &list)
	if len(list) != 1 {
		t.Fatalf("%d sessions after the refused creates, want 1", len(list))
	}
}

// TestServeDeltaValidation: a bad batch is rejected whole — 400, no
// partial application — and bad feedback (unknown attribute, duplicate
// confirmation, empty value) is rejected without touching the session.
func TestServeDeltaValidation(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 1})
	info := tc.create("val", fixtureCSV("va", 6), 1, 0)
	before := tc.allRepairs(info.ID)

	// Batch with a trailing invalid op: atomically rejected.
	status, raw := tc.json("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 0, Values: []string{"va-k000", "va-new"}},
		{Op: "delete", Row: 9999},
	}}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d: %s", status, raw)
	}
	if status, _ := tc.json("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 0, Values: []string{"just-one"}},
	}}, nil); status != http.StatusBadRequest {
		t.Fatalf("wrong arity: status %d", status)
	}
	// An op without "row" must be rejected, not aimed at tuple 0.
	if status, raw := tc.do("POST", "/sessions/"+info.ID+"/deltas", "application/json",
		[]byte(`{"ops":[{"op":"delete"}]}`)); status != http.StatusBadRequest {
		t.Fatalf("missing row: status %d: %s", status, raw)
	}
	// Likewise feedback without "tuple".
	if status, raw := tc.do("POST", "/sessions/"+info.ID+"/feedback", "application/json",
		[]byte(`{"items":[{"attr":"Val","value":"x"}]}`)); status != http.StatusBadRequest {
		t.Fatalf("missing tuple: status %d: %s", status, raw)
	}
	after := tc.allRepairs(info.ID)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("rejected batch mutated state at repair %d", i)
		}
	}

	// Feedback validation surface.
	if status, _ := tc.json("POST", "/sessions/"+info.ID+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tuple: 0, Attr: "NoSuchAttr", Value: "x"},
	}}, nil); status != http.StatusBadRequest {
		t.Fatalf("unknown attr: status %d", status)
	}
	if status, _ := tc.json("POST", "/sessions/"+info.ID+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tuple: 0, Attr: "Val", Value: ""},
	}}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty value: status %d", status)
	}
	tc.mustJSON("POST", "/sessions/"+info.ID+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tuple: 4, Attr: "Val", Value: "va-v000"},
	}}, nil)
	if status, _ := tc.json("POST", "/sessions/"+info.ID+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tuple: 4, Attr: "Val", Value: "va-v000"},
	}}, nil); status != http.StatusBadRequest {
		t.Fatalf("duplicate confirmation: status %d", status)
	}
}
