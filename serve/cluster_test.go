package serve

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// clusterNode is one member of a test cluster: a Server with its own
// store directory, listening on a real port (the peer list must be
// known before New, so listeners are bound before the servers exist).
type clusterNode struct {
	sv     *Server
	ts     *httptest.Server
	tc     *testClient
	url    string
	dir    string
	killed bool
}

// kill simulates a leader failure: close the listener and drop the
// process state without Shutdown — no final checkpoint is cut, exactly
// like the crash tests.
func (nd *clusterNode) kill() {
	if nd.killed {
		return
	}
	nd.killed = true
	nd.ts.CloseClientConnections()
	nd.ts.Close()
	nd.sv.Close()
}

// clusterConfig is storeConfig plus the replication tier, tuned for
// test latency: fast catalog sweeps and short long-polls so shipping
// converges in tens of milliseconds.
func clusterConfig(dir string, workers int, self string, peers []string) Config {
	cfg := storeConfig(dir, workers)
	cfg.Self = self
	cfg.Peers = append([]string(nil), peers...)
	cfg.ShipInterval = 10 * time.Millisecond
	cfg.ShipWaitMS = 100
	cfg.IdleTimeout, cfg.SweepEvery = time.Hour, time.Hour
	return cfg
}

// newCluster boots n nodes that all know the full peer list. Listeners
// are bound first (the advertised URLs go into every node's config),
// then the servers start behind them.
func newCluster(t *testing.T, n, workers int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &clusterNode{ts: ts, url: "http://" + ts.Listener.Addr().String(), dir: t.TempDir()}
		urls[i] = nodes[i].url
	}
	for _, nd := range nodes {
		sv, err := New(clusterConfig(nd.dir, workers, nd.url, urls))
		if err != nil {
			t.Fatal(err)
		}
		nd.sv = sv
		nd.ts.Config.Handler = sv
		nd.ts.Start()
		nd.tc = &testClient{t: t, base: nd.url, c: nd.ts.Client()}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.kill()
		}
	})
	return nodes
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitDurableCatchUp blocks until the follower's durable copy of id has
// reached wantSeq, observed through its own /healthz lag gauges.
func waitDurableCatchUp(t *testing.T, follower *clusterNode, id string, wantSeq uint64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("follower %s to reach seq %d of %s", follower.url, wantSeq, id), func() bool {
		var health HealthResponse
		if status, _, err := follower.tc.jsonErr("GET", "/healthz", nil, &health); err != nil || status != http.StatusOK {
			return false
		}
		if health.Cluster == nil {
			return false
		}
		lag, ok := health.Cluster.Following[id]
		return ok && lag.AppliedSeq >= wantSeq
	})
}

// leaderSeq reads the leader's durable log position for id.
func leaderSeq(t *testing.T, leader *clusterNode, id string) uint64 {
	t.Helper()
	var info SessionInfo
	leader.tc.mustJSON("GET", "/sessions/"+id+"?redirected=1", nil, &info)
	if info.Replication == nil {
		t.Fatalf("leader listing of %s has no replication info", id)
	}
	return info.Replication.AppliedSeq
}

// TestServeClusterRoutingAndReplicaReads pins the request-routing
// contract: creates mint ids the creating node owns, writes to a
// non-leader answer 307 (once) and 409 (twice), redirect-following
// clients land transparently, and the standby serves reads from its
// own mirrored copy with matching bytes and honest role/lag gauges.
func TestServeClusterRoutingAndReplicaReads(t *testing.T) {
	nodes := newCluster(t, 2, 1)
	leader, standby := nodes[0], nodes[1]

	info := leader.tc.create("routed", fixtureCSV("rt", 8), 3, 0)
	if info.Replication == nil || info.Replication.Role != "leader" || info.Replication.Leader != leader.url {
		t.Fatalf("create on node 1 did not mint an owned id: %+v", info.Replication)
	}

	// A write landing on the standby redirects to the leader with the
	// body-preserving 307 plus a Leader header.
	raw := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	body := []byte(`{"ops":[{"op":"delete","row":1}],"op_id":"redir-1"}`)
	req, err := http.NewRequest("POST", standby.url+"/sessions/"+info.ID+"/deltas", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := raw.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("write on standby: status %d, want 307", resp.StatusCode)
	}
	if got := resp.Header.Get("Leader"); got != leader.url {
		t.Fatalf("write on standby: Leader header %q, want %q", got, leader.url)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leader.url+"/sessions/"+info.ID+"/deltas") || !strings.Contains(loc, "redirected=1") {
		t.Fatalf("write on standby: Location %q", loc)
	}
	// A second hop means split routing: refuse, don't loop.
	status, _, err := standby.tc.jsonErr("POST", "/sessions/"+info.ID+"/deltas?redirected=1",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 1}}, OpID: "redir-2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict {
		t.Fatalf("already-redirected write on standby: status %d, want 409", status)
	}
	// A default redirect-following client pointed at the wrong node
	// still gets its write applied (by the leader).
	var dres DeltaResponse
	standby.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 1}}, OpID: "redir-3"}, &dres)
	if dres.Duplicate || dres.Applied != 1 {
		t.Fatalf("redirect-followed delta: %+v", dres)
	}

	// The standby mirrors the log and serves reads locally (redirected=1
	// forbids any fallback to the leader).
	waitDurableCatchUp(t, standby, info.ID, leaderSeq(t, leader, info.ID))
	var mirrored SessionInfo
	waitUntil(t, "standby to register the mirrored session", func() bool {
		status, _, err := standby.tc.jsonErr("GET", "/sessions/"+info.ID+"?redirected=1", nil, &mirrored)
		return err == nil && status == http.StatusOK
	})
	if mirrored.Replication == nil || mirrored.Replication.Role != "replica" {
		t.Fatalf("standby role: %+v", mirrored.Replication)
	}
	wantRepairs, wantCSV := finalState(t, leader.tc, info.ID)
	waitUntil(t, "replica reads to converge with the leader", func() bool {
		var page RepairPage
		status, _, err := standby.tc.jsonErr("GET", "/sessions/"+info.ID+"/repairs?redirected=1", nil, &page)
		if err != nil || status != http.StatusOK || len(page.Items) != len(wantRepairs) {
			return false
		}
		for i := range wantRepairs {
			if page.Items[i] != wantRepairs[i] {
				return false
			}
		}
		return true
	})
	status, gotCSV := standby.tc.do("GET", "/sessions/"+info.ID+"/dataset?redirected=1", "", nil)
	if status != http.StatusOK || string(gotCSV) != string(wantCSV) {
		t.Fatalf("replica dataset: status %d, bytes match: %v", status, string(gotCSV) == string(wantCSV))
	}

	// Health gauges: the leader counts the tenant as led and sees its
	// follower polling; the standby counts it as mirrored with zero lag.
	var lh, sh HealthResponse
	leader.tc.mustJSON("GET", "/healthz", nil, &lh)
	standby.tc.mustJSON("GET", "/healthz", nil, &sh)
	if lh.Cluster == nil || lh.Cluster.Leading != 1 || lh.Cluster.Mirroring != 0 {
		t.Fatalf("leader cluster health: %+v", lh.Cluster)
	}
	if len(lh.Cluster.Followers[info.ID]) != 1 || lh.Cluster.Followers[info.ID][0].URL != standby.url {
		t.Fatalf("leader follower view: %+v", lh.Cluster.Followers)
	}
	if sh.Cluster == nil || sh.Cluster.Mirroring != 1 || sh.Cluster.Leading != 0 {
		t.Fatalf("standby cluster health: %+v", sh.Cluster)
	}
	if lag := sh.Cluster.Following[info.ID]; lag.Leader != leader.url {
		t.Fatalf("standby lag gauge: %+v", lag)
	}
}

// TestServeClusterDemoteKeepsStreaming pins the demotion contract: a
// draining leader refuses writes with 503 but keeps cataloging and
// streaming its tail, so the standby finishes catching up while the
// writes are parked.
func TestServeClusterDemoteKeepsStreaming(t *testing.T) {
	nodes := newCluster(t, 2, 1)
	leader, standby := nodes[0], nodes[1]
	info := leader.tc.create("drained", fixtureCSV("dm", 6), 5, 0)
	leader.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 2}}, OpID: "pre-demote"}, nil)
	seq := leaderSeq(t, leader, info.ID)

	var dr map[string]bool
	leader.tc.mustJSON("POST", "/cluster/demote", nil, &dr)
	if !dr["draining"] {
		t.Fatalf("demote response: %+v", dr)
	}
	status, _, err := leader.tc.jsonErr("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 3}}, OpID: "during-demote"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("write on demoting leader: status %d, want 503", status)
	}
	// The replication endpoints stay open: the catalog answers and the
	// standby drains the tail to the pre-demotion position.
	if status, _ := leader.tc.do("GET", "/replicate/logs", "", nil); status != http.StatusOK {
		t.Fatalf("catalog on demoting leader: status %d", status)
	}
	waitDurableCatchUp(t, standby, info.ID, seq)

	leader.tc.mustJSON("POST", "/cluster/demote?resume=1", nil, &dr)
	if dr["draining"] {
		t.Fatalf("resume response: %+v", dr)
	}
	leader.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 3}}, OpID: "post-resume"}, nil)
}

// TestServeClusterCloseQuiesces pins Close's contract in cluster mode: when
// it returns, the janitor, the compactor and every shipper with its
// followers have exited, so nothing touches the store directory any more.
// Each round closes the nodes right after a write, while the standby is
// still shipping it; a follower outliving Close used to reopen the tenant
// log under the closed store (seen as a TempDir cleanup failure).
func TestServeClusterCloseQuiesces(t *testing.T) {
	dirState := func(dir string) string {
		var b strings.Builder
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s %d %d\n", path, info.Size(), info.ModTime().UnixNano())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	atClose := make(map[string]string) // store directory → its state when Close returned
	for round := 0; round < 8; round++ {
		nodes := newCluster(t, 2, 1)
		leader, standby := nodes[0], nodes[1]
		info := leader.tc.create("closing", fixtureCSV("cq", 6), int64(round+1), 0)
		waitDurableCatchUp(t, standby, info.ID, leaderSeq(t, leader, info.ID))
		leader.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
			DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 2}}, OpID: "last-write"}, nil)
		leader.kill()
		standby.kill()
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		for _, fn := range []string{"(*Server).janitor", "(*Server).compactor", "(*Shipper).Run", "(*Shipper).follow"} {
			if bytes.Contains(stacks, []byte(fn)) {
				t.Fatalf("round %d: %s still running after Close:\n%s", round, fn, stacks)
			}
		}
		atClose[leader.dir], atClose[standby.dir] = dirState(leader.dir), dirState(standby.dir)
	}
	for dir, want := range atClose {
		if got := dirState(dir); got != want {
			t.Errorf("store %s written after Close:\nat close\n%snow\n%s", dir, want, got)
		}
	}
}

// TestServeClusterMigrate pins checkpoint-handoff movement: after
// POST /cluster/migrate/{id}?to=B the target leads (writes apply
// there, with state intact), the old leader steps down to a mirror and
// redirects writes at the new home.
func TestServeClusterMigrate(t *testing.T) {
	nodes := newCluster(t, 2, 1)
	a, b := nodes[0], nodes[1]
	info := a.tc.create("mover", fixtureCSV("mg", 8), 7, 0)
	a.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "upsert", Row: 2, Values: []string{"mg-k000", "mg-moved"}}}, OpID: "pre-move"}, nil)
	wantRepairs, wantCSV := finalState(t, a.tc, info.ID)

	var mres map[string]string
	a.tc.mustJSON("POST", "/cluster/migrate/"+info.ID+"?to="+b.url, nil, &mres)
	if mres["leader"] != b.url {
		t.Fatalf("migrate response: %+v", mres)
	}

	// The target now leads with byte-identical state.
	var moved SessionInfo
	b.tc.mustJSON("GET", "/sessions/"+info.ID+"?redirected=1", nil, &moved)
	if moved.Replication == nil || moved.Replication.Role != "leader" {
		t.Fatalf("target role after migrate: %+v", moved.Replication)
	}
	gotRepairs, gotCSV := finalState(t, b.tc, info.ID)
	if len(gotRepairs) != len(wantRepairs) {
		t.Fatalf("migrated state: %d repairs, want %d", len(gotRepairs), len(wantRepairs))
	}
	for i := range wantRepairs {
		if gotRepairs[i] != wantRepairs[i] {
			t.Fatalf("migrated repair %d differs", i)
		}
	}
	if string(gotCSV) != string(wantCSV) {
		t.Fatal("migrated CSV differs")
	}
	// Writes apply on the new leader; the old leader redirects there and
	// keeps a read-serving mirror.
	var dres DeltaResponse
	b.tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas",
		DeltaRequest{Ops: []DeltaOp{{Op: "delete", Row: 4}}, OpID: "post-move"}, &dres)
	if dres.Duplicate {
		t.Fatalf("post-migration delta on target: %+v", dres)
	}
	var old SessionInfo
	a.tc.mustJSON("GET", "/sessions/"+info.ID+"?redirected=1", nil, &old)
	if old.Replication == nil || old.Replication.Role != "replica" || old.Replication.Leader != b.url {
		t.Fatalf("old leader after migrate: %+v", old.Replication)
	}
}

// TestServeClusterFailoverProperty is the replication acceptance test:
// a mixed delta/feedback/relearn script runs against a 2-node cluster,
// the leader is hard-killed (kill -9 equivalent: listener torn down,
// no shutdown hook, no final checkpoint) at a randomized step once the
// standby's durable copy has caught up, the standby is promoted, the
// client retries its last ambiguous request (which must dedup — the
// idempotency window rides the WAL across the failover) and finishes
// the script there; final repairs and CSV must be byte-identical to an
// uninterrupted single-node control — at Workers 1 and 4.
func TestServeClusterFailoverProperty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			script := crashScript("fo")
			csv := fixtureCSV("fo", 10)

			// Control: the whole script, uninterrupted, no cluster.
			_, ctl := newTestServer(t, Config{Workers: workers, Options: storeConfig("", workers).Options})
			ctlInfo := ctl.create("control", csv, 11, 2)
			for i, st := range script {
				if runStep(t, ctl, ctlInfo.ID, i, st) {
					t.Fatalf("control step %d flagged duplicate", i)
				}
			}
			wantRepairs, wantCSV := finalState(t, ctl, ctlInfo.ID)

			rng := rand.New(rand.NewSource(int64(workers)*2000 + 3))
			for trial := 0; trial < 2; trial++ {
				nodes := newCluster(t, 2, workers)
				leader, standby := nodes[0], nodes[1]
				kill := 1 + rng.Intn(len(script))

				info := leader.tc.create("victim", csv, 11, 2)
				for i := 0; i < kill; i++ {
					if runStep(t, leader.tc, info.ID, i, script[i]) {
						t.Fatalf("kill@%d: pre-failover step %d flagged duplicate", kill, i)
					}
				}
				// Replication is asynchronous: the property below (the
				// retried op must dedup, everything acked must survive)
				// holds once the standby's durable mirror has the full
				// acked prefix — so catch up, then pull the plug.
				waitDurableCatchUp(t, standby, info.ID, leaderSeq(t, leader, info.ID))
				leader.kill()

				standby.tc.mustJSON("POST", "/cluster/promote/"+info.ID, nil, nil)
				// The client cannot know whether its last ack raced the
				// crash; it retries against the new leader and the op_id
				// in the shipped WAL makes the retry a clean duplicate.
				if !runStep(t, standby.tc, info.ID, kill-1, script[kill-1]) {
					t.Fatalf("kill@%d: retry of step %d was re-applied after failover, not deduplicated", kill, kill-1)
				}
				for i := kill; i < len(script); i++ {
					if runStep(t, standby.tc, info.ID, i, script[i]) {
						t.Fatalf("kill@%d: post-failover step %d flagged duplicate", kill, i)
					}
				}
				gotRepairs, gotCSV := finalState(t, standby.tc, info.ID)
				if len(gotRepairs) != len(wantRepairs) {
					t.Fatalf("kill@%d: %d repairs after failover, want %d", kill, len(gotRepairs), len(wantRepairs))
				}
				for j := range wantRepairs {
					if gotRepairs[j] != wantRepairs[j] {
						t.Fatalf("kill@%d: repair %d differs:\npromoted %+v\ncontrol  %+v", kill, j, gotRepairs[j], wantRepairs[j])
					}
				}
				if string(gotCSV) != string(wantCSV) {
					t.Fatalf("kill@%d: repaired CSV differs from uninterrupted control", kill)
				}
				standby.kill()
			}
		})
	}
}
