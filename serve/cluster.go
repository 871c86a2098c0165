package serve

// Replication tier wiring: the serve-side half of internal/cluster.
//
// Roles. With Config.Peers set, every tenant id is placed on the
// consistent-hash ring: exactly one node leads it (serves writes,
// checkpoints and compacts its log) and the ring's next distinct peer
// mirrors it as a warm standby. Ids are minted owned — nextID skips ids
// the ring places elsewhere — so creates never redirect and two nodes
// can never mint the same id. Writes that land on a non-leader answer
// 307 to the leader (or 409 with a Leader header when the redirect
// already bounced once); reads are served by any node holding the
// tenant, which is what makes the standby a read replica. A tenant's
// role on this node is not stored: it is isLeader(id), a function of the
// route overrides and the ring alone, so role and redirects cannot
// disagree.
//
// Streaming. Leaders expose their logs verbatim (GET /replicate/logs,
// GET /replicate/wal/{id} with long-polling); each node runs one
// cluster.Shipper per other peer whose filter selects the tenants this
// node stands by for that leader. Shipped frames land durably first
// (CRC re-verified, byte-for-byte) and then warm the replica's live
// session through applyRecord — the same code path crash recovery
// replays through, so the standby's state is bit-identical by the
// pipeline's determinism. Replicas never checkpoint or compact a
// mirrored log: its layout belongs to the leader, and a divergent
// local rewrite would break the prefix-extension invariant (shipments
// land via AppendFrames/ResetFrames only).
//
// Failover and movement. Route overrides — an in-memory map consulted
// before the ring — are how leadership moves without changing -peers:
// promotion (POST /cluster/promote/{id} on the standby) points the
// tenant at this node, revives the session from the shipped log via
// the crash-recovery path, and resumes checkpoint duty; migration
// (POST /cluster/migrate/{id}?to=URL on the leader) checkpoints,
// compacts, ships the whole log to the target's /replicate/accept, and
// flips the route; POST /cluster/route/{id}?leader=URL informs the
// remaining nodes after a failover. Overrides do not survive a restart
// — a rebooted node falls back to ring placement until re-informed,
// which is the documented cost of keeping the control plane this small.
// Demotion (POST /cluster/demote) sets the draining flag: writes 503,
// but the /replicate endpoints never claim a job slot, so a demoting
// leader keeps streaming its tail until its standby has caught up.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"holoclean/internal/cluster"
	"holoclean/internal/store"
)

// followerView is the leader-side record of one follower's position on
// one tenant, scraped from the tail-poll query parameters.
type followerView struct {
	appliedSeq   uint64
	appliedBytes int64
	at           time.Time
}

// clusterEnabled reports whether this server runs as part of a cluster.
func (sv *Server) clusterEnabled() bool { return sv.ring != nil }

// leaderOf resolves a tenant's current leader URL: the route-override
// map first (promotion/migration moved it), the ring otherwise.
func (sv *Server) leaderOf(id string) string {
	if sv.ring == nil {
		return sv.cfg.Self
	}
	sv.routeMu.RLock()
	leader, ok := sv.routeTo[id]
	sv.routeMu.RUnlock()
	if ok {
		return leader
	}
	return sv.ring.Owner(id)
}

// isLeader reports whether this node currently leads id.
func (sv *Server) isLeader(id string) bool {
	return sv.ring == nil || sv.leaderOf(id) == sv.cfg.Self
}

// setRoute records a route override (promotion, migration, or an
// operator informing this node after a failover elsewhere).
func (sv *Server) setRoute(id, leader string) {
	sv.routeMu.Lock()
	if leader == "" {
		delete(sv.routeTo, id)
	} else {
		sv.routeTo[id] = leader
	}
	sv.routeMu.Unlock()
}

// shouldMirror reports whether this node is the designated standby for
// id under the given leader: the first ring successor that is not the
// leader itself. Consulted by each shipper's filter on every round, so
// role changes take effect at the next poll.
func (sv *Server) shouldMirror(id, leader string) bool {
	if sv.ring == nil || leader == sv.cfg.Self {
		return false
	}
	if sv.leaderOf(id) != leader {
		return false
	}
	for _, p := range sv.ring.Successors(id, sv.ring.Size()) {
		if p == leader {
			continue
		}
		return p == sv.cfg.Self
	}
	return false
}

// startCluster validates the cluster configuration, builds the ring,
// and (after the store is recovered) starts one shipper per other peer.
// Called from New; the ring must exist before loadStore so recovered
// tenants get their roles.
func (sv *Server) startCluster() error {
	if sv.cfg.StoreDir == "" {
		return errors.New("serve: cluster mode requires StoreDir (replication ships the WAL)")
	}
	if sv.cfg.Self == "" {
		return errors.New("serve: cluster mode requires Self (this node's advertised URL)")
	}
	ring := cluster.NewRing(sv.cfg.Peers)
	self := false
	for _, p := range ring.Peers() {
		if p == sv.cfg.Self {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("serve: Self %q is not in Peers %v", sv.cfg.Self, sv.cfg.Peers)
	}
	sv.ring = ring
	sv.routeTo = make(map[string]string)
	sv.followers = make(map[string]map[string]followerView)
	return nil
}

// startShippers launches the per-peer shippers. Called after loadStore
// so the first catalog sweep sees recovered logs in place.
func (sv *Server) startShippers() {
	ctx, cancel := context.WithCancel(context.Background())
	sv.background(func() { <-sv.stop; cancel() })
	for _, peer := range sv.ring.Peers() {
		if peer == sv.cfg.Self {
			continue
		}
		leader := peer
		sh, err := cluster.NewShipper(cluster.ShipperConfig{
			Leader:     leader,
			Self:       sv.cfg.Self,
			Store:      sv.store,
			Filter:     func(id string) bool { return sv.shouldMirror(id, leader) },
			Apply:      sv.replicaApply,
			Remove:     sv.removeReplica,
			ObserveLag: sv.tel.setLag,
			Interval:   sv.cfg.ShipInterval,
			WaitMS:     sv.cfg.ShipWaitMS,
			Logf:       sv.cfg.Logf,
		})
		if err != nil {
			sv.logf("serve: shipper for %s: %v", leader, err)
			continue
		}
		sv.shippers = append(sv.shippers, sh)
		sv.background(func() { sh.Run(ctx) }) // Run returns after its followers
	}
}

// replicaApply is the shipper's Apply hook: frames are already durable
// in the local log; warm the replica's live session by replaying them
// through the same code paths the handlers use. A failure here only
// costs warmth — the durable copy is correct, and the cold path below
// rebuilds from it on the next round or read.
func (sv *Server) replicaApply(id string, frames []store.Frame, reset bool) error {
	t, err := sv.mirrorOf(id)
	if err != nil {
		return err
	}
	if sv.isLeader(id) {
		return nil // promoted out from under the shipment; the filter stops it next round
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if reset {
		// The local copy was replaced wholesale (leader compacted past us
		// or we diverged); warm state derived from the old bytes is void.
		t.dropLive()
	}
	if t.session == nil {
		// Cold: rebuild the warm session from the local log — exactly the
		// crash-recovery path, which is the point: promotion later finds a
		// session recovery already proved bit-identical.
		if err := sv.revive(t); err != nil {
			return err
		}
		t.touch(time.Now())
		return nil
	}
	for _, fr := range frames {
		if fr.Seq <= t.walSeq {
			continue
		}
		res, err := sv.applyRecord(t, fr.Record)
		if err != nil {
			// The warm session may have half-applied the record; drop it so
			// the next round rebuilds from the durable log.
			t.session = nil
			t.walSeq = 0
			return err
		}
		if res != nil {
			if err := t.setResult(res); err != nil {
				return err
			}
		}
		t.walSeq = fr.Seq
	}
	t.touch(time.Now())
	return nil
}

// mirrorOf returns the tenant registered for id, registering a
// session-less mirror around the id's local log when this node has none
// yet.
func (sv *Server) mirrorOf(id string) (*tenant, error) {
	if t := sv.lookup(id); t != nil {
		return t, nil
	}
	l, err := sv.store.Log(id)
	if err != nil {
		return nil, err
	}
	t := &tenant{id: id, created: time.Now(), log: l}
	t.touch(time.Now())
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if exist := sv.sessions[id]; exist != nil {
		return exist, nil
	}
	sv.sessions[id] = t
	return t, nil
}

// removeReplica is the shipper's Remove hook: the leader no longer has
// the tenant (deleted or migrated away), so drop the mirror — but only
// a mirror; a promoted leader is not the old leader's to delete.
func (sv *Server) removeReplica(id string) error {
	t := sv.lookup(id)
	if t == nil || sv.isLeader(id) {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sv.lookup(id) != t || sv.isLeader(id) {
		return nil
	}
	if err := sv.store.Remove(id); err != nil {
		return err
	}
	sv.mu.Lock()
	delete(sv.sessions, id)
	sv.mu.Unlock()
	t.session = nil
	sv.logf("serve: dropped mirror of %s (gone from leader)", id)
	return nil
}

// redirectWrite routes a mutating request away from a non-leader: 307
// with Location (clients re-send the body) and a Leader header, or 409
// if the request already followed one redirect — two hops means the
// cluster's routing is split and the client should back off, not loop.
// Returns true when the request was handled (redirected or refused).
func (sv *Server) redirectWrite(w http.ResponseWriter, r *http.Request, id string) bool {
	if sv.isLeader(id) {
		return false
	}
	leader := sv.leaderOf(id)
	w.Header().Set(cluster.HdrLeader, leader)
	if r.URL.Query().Get("redirected") == "1" {
		writeError(w, http.StatusConflict, "node %s does not lead session %q (leader: %s)", sv.cfg.Self, id, leader)
		return true
	}
	q := r.URL.Query()
	q.Set("redirected", "1")
	w.Header().Set("Location", leader+r.URL.Path+"?"+q.Encode())
	writeError(w, http.StatusTemporaryRedirect, "session %q is led by %s", id, leader)
	return true
}

// redirectRead routes a read for a tenant this node holds no copy of.
// Reads on a local copy — leader or replica — are served locally and
// never reach here.
func (sv *Server) redirectRead(w http.ResponseWriter, r *http.Request, id string) bool {
	if !sv.clusterEnabled() || sv.isLeader(id) || r.URL.Query().Get("redirected") == "1" {
		return false
	}
	leader := sv.leaderOf(id)
	w.Header().Set(cluster.HdrLeader, leader)
	q := r.URL.Query()
	q.Set("redirected", "1")
	w.Header().Set("Location", leader+r.URL.Path+"?"+q.Encode())
	writeError(w, http.StatusTemporaryRedirect, "session %q is led by %s", id, leader)
	return true
}

// --- replication protocol handlers (leader side) ---

// handleReplicateLogs is GET /replicate/logs: the catalog of tenants
// this node leads, for followers' discovery sweeps. Intentionally not
// gated on draining: a demoting leader keeps cataloging so its standby
// drains the tail.
func (sv *Server) handleReplicateLogs(w http.ResponseWriter, r *http.Request) {
	infos := []cluster.LogInfo{}
	for _, t := range sv.tenants() {
		if !sv.isLeader(t.id) {
			continue
		}
		st := t.log.Stats()
		infos = append(infos, cluster.LogInfo{ID: t.id, Seq: st.Seq, Bytes: st.WALBytes})
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleReplicateWAL is GET /replicate/wal/{id}: stream the tenant's
// verified frames after ?after=SEQ, long-polling up to ?wait_ms when
// the follower is caught up. The response body is raw w1 frames — the
// disk format is the wire format — with the log's durable position in
// the X-Replication-Seq/-Bytes headers and X-Replication-Reset marking
// a non-contiguous shipment the follower must adopt wholesale. No job
// slot is claimed: streaming keeps working while draining.
func (sv *Server) handleReplicateWAL(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := sv.lookup(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	q := r.URL.Query()
	after, err := strconv.ParseUint(q.Get("after"), 10, 64)
	if err != nil && q.Get("after") != "" {
		writeError(w, http.StatusBadRequest, "bad after %q", q.Get("after"))
		return
	}
	waitMS, _ := strconv.Atoi(q.Get("wait_ms"))
	if waitMS < 0 {
		waitMS = 0
	}
	if waitMS > 30000 {
		waitMS = 30000
	}
	deadline := time.Now().Add(time.Duration(waitMS) * time.Millisecond)

	var frames []store.Frame
	var reset bool
	for {
		// Arm the tail notification BEFORE checking, so an append racing
		// the check is never slept through.
		ch := t.log.Wait()
		frames, reset, err = t.log.FramesSince(after)
		if err != nil {
			if sv.lookup(id) == nil {
				writeError(w, http.StatusNotFound, "no session %q", id)
			} else {
				writeError(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		if len(frames) > 0 || reset {
			break
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}

	if follower := q.Get("follower"); follower != "" {
		bytes, _ := strconv.ParseInt(q.Get("applied_bytes"), 10, 64)
		sv.followMu.Lock()
		m := sv.followers[id]
		if m == nil {
			m = make(map[string]followerView)
			sv.followers[id] = m
		}
		m[follower] = followerView{appliedSeq: after, appliedBytes: bytes, at: time.Now()}
		sv.followMu.Unlock()
	}
	st := t.log.Stats()
	w.Header().Set(cluster.HdrSeq, strconv.FormatUint(st.Seq, 10))
	w.Header().Set(cluster.HdrBytes, strconv.FormatInt(st.WALBytes, 10))
	if reset {
		w.Header().Set(cluster.HdrReset, "true")
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, fr := range frames {
		if _, err := w.Write(fr.Raw); err != nil {
			return // follower hung up; it will re-poll from its durable position
		}
	}
}

// handleReplicateAccept is POST /replicate/accept/{id}: the receiving
// half of checkpoint-handoff migration. The body is a whole log as raw
// frames; it is verified, adopted atomically, and the session restored
// through the recovery path — after which this node leads the tenant.
func (sv *Server) handleReplicateAccept(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var frames []store.Frame
	sc := store.NewFrameScanner(r.Body)
	for {
		fr, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "verifying migrated log: %v", err)
			return
		}
		frames = append(frames, fr)
	}
	if len(frames) == 0 {
		writeError(w, http.StatusBadRequest, "empty migrated log")
		return
	}
	release, ok := sv.acquireOr(w, r)
	if !ok {
		return
	}
	defer release()
	t, err := sv.mirrorOf(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.log.ResetFrames(frames); err != nil {
		writeError(w, http.StatusInternalServerError, "adopting migrated log: %v", err)
		return
	}
	sv.setRoute(id, sv.cfg.Self)
	t.dropLive() // state derived from the replaced bytes is void
	if err := sv.revive(t); err != nil {
		writeError(w, http.StatusInternalServerError, "restoring migrated session: %v", err)
		return
	}
	t.touch(time.Now())
	sv.logf("serve: accepted migrated session %s (%d frames)", id, len(frames))
	writeJSON(w, http.StatusOK, sv.sessionInfo(t))
}

// --- cluster control handlers ---

// handlePromote is POST /cluster/promote/{id}, run on the standby after
// its leader died: point the tenant's route here, revive the session
// from the shipped log via the crash-recovery path (bit-identical by
// determinism; the duplicate window rides in the log, so a client
// retrying across the failover still gets a clean deduplicated ack),
// and resume the leader's checkpoint/compaction duty.
func (sv *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !sv.clusterEnabled() {
		writeError(w, http.StatusBadRequest, "not running in cluster mode")
		return
	}
	id := r.PathValue("id")
	t := sv.lookup(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "no replicated copy of %q on this node", id)
		return
	}
	release, ok := sv.acquireOr(w, r)
	if !ok {
		return
	}
	defer release()
	t.mu.Lock()
	defer t.mu.Unlock()
	sv.setRoute(id, sv.cfg.Self)
	if t.session == nil || t.walSeq != t.log.Stats().Seq {
		// Cold, or the warm session trails the durable log (a warm-apply
		// round failed): rebuild from the log rather than promote stale
		// state.
		if err := sv.revive(t); err != nil {
			writeError(w, http.StatusInternalServerError, "promoting %s: %v", id, err)
			return
		}
	}
	// Leader duty resumes: the mirrored history converges to a fresh
	// checkpoint.
	if err := sv.converge(t); err != nil {
		sv.logf("serve: post-promotion checkpoint of %s: %v", id, err)
	}
	t.touch(time.Now())
	sv.logf("serve: promoted to leader of %s", id)
	writeJSON(w, http.StatusOK, sv.sessionInfo(t))
}

// handleRoute is POST /cluster/route/{id}?leader=URL: record where a
// tenant's leadership moved, so this node redirects writes there and
// its shippers re-evaluate standby duty. leader="" clears the override
// back to ring placement.
func (sv *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if !sv.clusterEnabled() {
		writeError(w, http.StatusBadRequest, "not running in cluster mode")
		return
	}
	id := r.PathValue("id")
	leader := r.URL.Query().Get("leader")
	sv.setRoute(id, leader)
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "leader": sv.leaderOf(id)})
}

// handleMigrate is POST /cluster/migrate/{id}?to=URL, run on the
// leader: checkpoint-handoff the session to another node. The sequence
// is evict (checkpoint + compact shrinks the log to essentially the
// checkpoint), ship (the whole log to the target's /replicate/accept),
// restore (the target replays it), then flip the local route — this
// node keeps its copy as a mirror.
func (sv *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !sv.clusterEnabled() {
		writeError(w, http.StatusBadRequest, "not running in cluster mode")
		return
	}
	id := r.PathValue("id")
	to := r.URL.Query().Get("to")
	if to == "" || to == sv.cfg.Self {
		writeError(w, http.StatusBadRequest, "migrate needs ?to=<peer URL> naming another node")
		return
	}
	if sv.redirectWrite(w, r, id) {
		return
	}
	t := sv.lookup(id)
	if t == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	release, ok := sv.acquireOr(w, r)
	if !ok {
		return
	}
	defer release()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := sv.ensureLive(t); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Evict: a fresh checkpoint makes the log self-sufficient and small.
	if err := sv.converge(t); err != nil {
		writeError(w, http.StatusConflict, "checkpointing %s for migration: %v", id, err)
		return
	}
	frames, _, err := t.log.FramesSince(0)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading log of %s: %v", id, err)
		return
	}
	var body []byte
	for _, fr := range frames {
		body = append(body, fr.Raw...)
	}
	req, err := http.NewRequestWithContext(r.Context(), "POST", to+cluster.PathAccept+id, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "shipping log to %s: %v", to, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		writeError(w, http.StatusBadGateway, "target %s refused the migration: %d %s", to, resp.StatusCode, msg)
		return
	}
	// Restore happened on the target; flip the route and step down to a
	// mirror. The live session is dropped — reads here now serve from
	// the replicated log like any other standby.
	sv.setRoute(id, to)
	t.session = nil
	t.walSeq = t.log.Stats().Seq
	sv.logf("serve: migrated session %s to %s", id, to)
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "leader": to})
}

// handleDemote is POST /cluster/demote: set the draining flag, so
// writes answer 503 while the /replicate endpoints — which never claim
// a job slot — keep streaming the tail to the standby. ?resume=1 undoes
// it.
func (sv *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("resume") == "1" {
		sv.draining.Store(false)
	} else {
		sv.draining.Store(true)
	}
	writeJSON(w, http.StatusOK, map[string]bool{"draining": sv.draining.Load()})
}

// --- health/listing views ---

// replicationInfo renders a tenant's role for listings; nil outside
// cluster mode.
func (sv *Server) replicationInfo(t *tenant) *ReplicationInfo {
	if !sv.clusterEnabled() {
		return nil
	}
	info := &ReplicationInfo{Role: "leader", Leader: sv.leaderOf(t.id), AppliedSeq: t.log.Stats().Seq}
	if info.Leader != sv.cfg.Self {
		info.Role = "replica"
	}
	return info
}

// sessionInfo is t.info() plus the cluster-mode replication fields.
func (sv *Server) sessionInfo(t *tenant) SessionInfo {
	out := t.info()
	out.Replication = sv.replicationInfo(t)
	return out
}

// clusterHealth renders the /healthz replication section.
func (sv *Server) clusterHealth(tenants []*tenant) *ClusterHealth {
	if !sv.clusterEnabled() {
		return nil
	}
	ch := &ClusterHealth{
		Enabled: true,
		Self:    sv.cfg.Self,
		Peers:   sv.ring.Peers(),
	}
	for _, t := range tenants {
		if sv.isLeader(t.id) {
			ch.Leading++
		} else {
			ch.Mirroring++
		}
	}
	// Follower side: how far this node's mirrors trail their leaders.
	for _, sh := range sv.shippers {
		for id, lag := range sh.Lag() {
			if ch.Following == nil {
				ch.Following = make(map[string]ReplicaLagInfo)
			}
			ch.Following[id] = ReplicaLagInfo{
				Leader:     sh.Leader(),
				AppliedSeq: lag.AppliedSeq,
				LeaderSeq:  lag.LeaderSeq,
				Ops:        lag.Ops,
				Bytes:      lag.Bytes,
			}
		}
	}
	// Leader side: the followers seen polling each led tenant.
	sv.followMu.Lock()
	for id, views := range sv.followers {
		t := sv.lookup(id)
		if t == nil {
			continue
		}
		st := t.log.Stats()
		for url, v := range views {
			fi := FollowerInfo{URL: url, AppliedSeq: v.appliedSeq}
			if st.Seq > v.appliedSeq {
				fi.Ops = int64(st.Seq - v.appliedSeq)
			}
			if st.WALBytes > v.appliedBytes {
				fi.Bytes = st.WALBytes - v.appliedBytes
			}
			if ch.Followers == nil {
				ch.Followers = make(map[string][]FollowerInfo)
			}
			ch.Followers[id] = append(ch.Followers[id], fi)
		}
	}
	sv.followMu.Unlock()
	return ch
}
