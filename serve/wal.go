package serve

// Durable session store wiring: every mutating endpoint appends its
// logical operation to the tenant's write-ahead log and waits for the
// group commit before acknowledging, so an acknowledged op can always be
// replayed after a crash. The record payloads below are the schema of
// those log entries; the pipeline's end-to-end determinism (same ops →
// same repairs, bit for bit) is what makes a logical log a sufficient
// durability primitive.
//
// One state machine. A tenant is a deterministic function of its log,
// and every transition exists once: openSession runs a create record,
// stageOp stages a deltas or feedback record as a round, replayTenant
// loads a checkpoint record. The live handlers decode client bytes into
// those payloads and call applyOp — stageOp, then the round's pass — as
// the replica warm-apply path does through applyRecord; crash replay
// stages a whole tail through stageOp and runs one pass after it.
//
// Ordering. Operations are validated, applied, appended, then acked:
//
//	validate → apply (reclean) → WAL append + fsync → ack
//
// The in-memory session is the only mutable state and the log the only
// durable state, so applying before appending loses nothing: a crash
// between apply and append discards an op that was never acknowledged
// (the client retries it), and appending only validated, successfully
// applied ops means recovery replay can never fail validation. The
// durability contract — no acknowledged operation is ever lost — holds
// because the ack strictly follows the fsync.
//
// Exactly-once replay. A client whose request died ambiguously (acked
// or not?) retries it with the same op_id. Applied op ids are tracked
// per tenant, survive crashes (they ride in the op records and the
// checkpoint envelope), and a duplicate is acknowledged without being
// re-applied — without this, a retried delete would remove a second
// row and a retried batch would advance the relearn clock twice.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"holoclean"
	"holoclean/internal/store"
)

// walCreate is the OpCreate payload: the full session-creation request,
// so a log is replayable from genesis even before its first checkpoint.
type walCreate struct {
	Name         string    `json:"name,omitempty"`
	CSV          string    `json:"csv"`
	Constraints  string    `json:"constraints"`
	SourceColumn string    `json:"source_column,omitempty"`
	Overrides    overrides `json:"overrides"`
}

// walDeltas is the OpDeltas payload: one atomic, validated delta batch.
type walDeltas struct {
	OpID string    `json:"op_id,omitempty"`
	Ops  []DeltaOp `json:"ops"`
}

// walFeedback is the OpFeedback payload: one confirmation batch, with
// attributes by name (schema-stable across replays).
type walFeedback struct {
	OpID  string         `json:"op_id,omitempty"`
	Items []FeedbackItem `json:"items"`
}

// walOp is a replayable mutation: the payload of a deltas or feedback
// record, which is also what a live request decodes into.
type walOp interface {
	// id is the client's idempotency key ("" when it sent none).
	id() string
	// ack renders the response from the tenant's published summary; res
	// is the run the op caused, nil when it was a deduplicated retry.
	ack(sum tenantSummary, res *holoclean.Result) any
}

func (p *walDeltas) id() string   { return p.OpID }
func (p *walFeedback) id() string { return p.OpID }

func (p *walDeltas) ack(sum tenantSummary, res *holoclean.Result) any {
	if res == nil {
		return DeltaResponse{Duplicate: true, Tuples: sum.tuples, Repairs: sum.repairs}
	}
	return DeltaResponse{Applied: len(p.Ops), Tuples: sum.tuples, Repairs: sum.repairs, Stats: runStatsInfo(res.Stats)}
}

func (p *walFeedback) ack(sum tenantSummary, res *holoclean.Result) any {
	if res == nil {
		return FeedbackResponse{Duplicate: true, Confirmed: sum.confirmed, Repairs: sum.repairs}
	}
	return FeedbackResponse{Confirmed: sum.confirmed, Repairs: sum.repairs, Stats: runStatsInfo(res.Stats)}
}

// invalidOp marks an apply failure caused by the operation's own
// content — bytes a client or peer chose — rather than by the pipeline.
type invalidOp struct{ error }

// walCheckpoint is the OpCheckpoint payload and the one form an evicted
// session takes: the session envelope, the applied-op-id window (so
// duplicate detection survives compaction and eviction) and the
// wall-clock stamp operators see as last_checkpoint_at.
type walCheckpoint struct {
	At         time.Time       `json:"at"`
	AppliedOps []string        `json:"applied_ops,omitempty"`
	Envelope   *serverSnapshot `json:"envelope"`
}

// decodeCheckpoint decodes the OpCheckpoint payload of tenant id's log;
// one without an envelope is as unusable as one that does not parse.
func decodeCheckpoint(id string, payload []byte) (walCheckpoint, error) {
	var ck walCheckpoint
	err := json.Unmarshal(payload, &ck)
	if err == nil && ck.Envelope == nil {
		err = errors.New("no envelope")
	}
	if err != nil {
		return ck, fmt.Errorf("decoding checkpoint of %s: %w", id, err)
	}
	return ck, nil
}

// maxAppliedOps bounds the per-tenant duplicate-detection window. Ids
// are retired FIFO: a retry must arrive within this many subsequent
// operations to be recognized — far beyond any real retry horizon.
const maxAppliedOps = 1024

// markApplied records an op id in the tenant's duplicate window. Call
// with t.mu held.
func (t *tenant) markApplied(opID string) {
	if opID == "" {
		return
	}
	if t.applied == nil {
		t.applied = make(map[string]bool)
	}
	if t.applied[opID] {
		return
	}
	t.applied[opID] = true
	t.appliedOrder = append(t.appliedOrder, opID)
	if len(t.appliedOrder) > maxAppliedOps {
		delete(t.applied, t.appliedOrder[0])
		t.appliedOrder = t.appliedOrder[1:]
	}
}

// isApplied reports whether an op id was already applied. Call with
// t.mu held.
func (t *tenant) isApplied(opID string) bool {
	return opID != "" && t.applied[opID]
}

// storeStats renders the operator gauges for listings.
func (t *tenant) storeStats() *SessionStoreInfo {
	st := t.log.Stats()
	out := &SessionStoreInfo{
		WALBytes:           st.WALBytes,
		OpsSinceCheckpoint: st.OpsSinceCheckpoint,
	}
	if !st.LastCheckpointAt.IsZero() {
		out.LastCheckpointAt = &st.LastCheckpointAt
	}
	return out
}

// buildEnvelope serializes t's live session into the checkpoint
// envelope. Call with t.mu held; a session with staged mutations (a
// failed reclean left them) is refused — folding them into the restore
// pass would desynchronize the envelope summary from the blob, so the
// session stays resident until a successful reclean settles it.
func (sv *Server) buildEnvelope(t *tenant) (*serverSnapshot, error) {
	if t.session == nil {
		return nil, fmt.Errorf("serve: session %s is not live", t.id)
	}
	if n := t.session.PendingMutations(); n > 0 {
		return nil, fmt.Errorf("session has %d tuples with staged mutations", n)
	}
	var sessBuf bytes.Buffer
	if err := t.session.Snapshot(&sessBuf); err != nil {
		return nil, err
	}
	t.resMu.RLock()
	sum := t.sum
	t.resMu.RUnlock()
	return &serverSnapshot{
		Name:      t.name,
		Overrides: t.ov,
		Tuples:    sum.tuples,
		Attrs:     sum.attrs,
		Repairs:   sum.repairs,
		Recleans:  sum.recleans,
		Confirmed: sum.confirmed,
		Session:   json.RawMessage(bytes.TrimSpace(sessBuf.Bytes())),
	}, nil
}

// checkpointLocked cuts a checkpoint of t's live session as a record
// appended to its log. Call with t.mu held and the session quiescent.
func (sv *Server) checkpointLocked(t *tenant) error {
	sp := sv.tel.span("checkpoint")
	defer sp.End()
	env, err := sv.buildEnvelope(t)
	if err != nil {
		return err
	}
	return t.log.Append(store.OpCheckpoint, &walCheckpoint{
		At:         time.Now().UTC(),
		AppliedOps: append([]string(nil), t.appliedOrder...),
		Envelope:   env,
	})
}

// converge reduces t's durable form to one checkpoint and an empty
// tail: cut a checkpoint of the live session, then compact away the
// history before it. Returns the checkpoint error; a failed compaction
// only costs disk until the next sweep and is logged. Call with t.mu
// held.
func (sv *Server) converge(t *tenant) error {
	if err := sv.checkpointLocked(t); err != nil {
		return err
	}
	if _, err := t.log.Compact(); err != nil {
		sv.logf("serve: compacting %s: %v", t.id, err)
	}
	return nil
}

// maybeCheckpoint appends a checkpoint when the tail has outgrown the
// ops budget. Called on the mutating path with t.mu held, right after a
// successful reclean — the one moment the session is guaranteed
// quiescent and the snapshot costs only serialization, no pipeline
// work. Failure is logged, not fatal: the ops are already durable
// individually, a checkpoint only shortens recovery.
func (sv *Server) maybeCheckpoint(t *tenant) {
	if t.session == nil || !sv.isLeader(t.id) || t.session.PendingMutations() > 0 {
		return
	}
	if t.log.Stats().OpsSinceCheckpoint < sv.cfg.CheckpointEvery {
		return
	}
	if err := sv.checkpointLocked(t); err != nil {
		sv.logf("serve: checkpointing %s: %v", t.id, err)
	}
}

// --- recovery ---

// loadStore opens the store directory, recovers every tenant log —
// latest checkpoint plus tail replay — and registers the sessions.
// Tenants whose log ends exactly at a checkpoint register evicted (the
// checkpoint is the snapshot; first touch restores it), tenants with
// tail operations are replayed to their exact pre-crash state now, and
// tombstoned logs complete their deletion.
func (sv *Server) loadStore() {
	ids, err := sv.store.IDs()
	if err != nil {
		sv.logf("serve: scanning store: %v", err)
		return
	}
	maxSeq := int64(0)
	for _, id := range ids {
		t, err := sv.recoverTenant(id)
		if err != nil {
			sv.logf("serve: recovering %s: %v", id, err)
			continue
		}
		if t == nil {
			continue // tombstoned (or empty) log, deleted
		}
		t.touch(time.Now())
		sv.register(t)
		var seq int64
		if n, _ := fmt.Sscanf(id, "s%d", &seq); n == 1 && seq > maxSeq {
			maxSeq = seq
		}
	}
	for {
		cur := sv.idSeq.Load()
		if cur >= maxSeq || sv.idSeq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
}

// recoverTenant rebuilds one tenant from its log. Returns (nil, nil)
// when the log is a completed removal or empty.
func (sv *Server) recoverTenant(id string) (*tenant, error) {
	l, err := sv.store.Log(id)
	if err != nil {
		return nil, err
	}
	rec, err := l.Recover()
	if err != nil {
		return nil, err
	}
	if rec.Removed {
		// Crash between tombstone and unlink: finish the removal.
		if err := sv.store.Remove(id); err != nil {
			return nil, err
		}
		sv.logf("serve: completed interrupted removal of %s", id)
		return nil, nil
	}
	if rec.Truncated {
		sv.logf("serve: truncated torn tail of %s", id)
	}
	if rec.Checkpoint == nil && len(rec.Tail) == 0 {
		sv.store.Remove(id)
		return nil, nil
	}
	t := &tenant{id: id, created: time.Now(), log: l}
	if len(rec.Tail) == 0 {
		// Clean checkpoint at the end: stay evicted, like a snapshot —
		// the envelope header keeps the listing truthful without paying
		// a restore.
		ck, err := decodeCheckpoint(id, rec.Checkpoint)
		if err != nil {
			return nil, err
		}
		sv.primeFromEnvelope(t, ck)
		sv.logf("serve: recovered session %s from checkpoint (evicted)", id)
		return t, nil
	}
	if err := sv.replayTenant(t, rec); err != nil {
		return nil, err
	}
	t.walSeq = t.log.Stats().Seq
	if sv.isLeader(id) {
		// The replayed tail becomes a fresh checkpoint and the pre-crash
		// garbage is compacted away, so repeated crash loops cannot grow
		// recovery time. A recovered log this node does not lead (route
		// overrides are in-memory only, so at boot that is the ring's
		// placement) is a mirror: its layout is the leader's to manage.
		if err := sv.converge(t); err != nil {
			sv.logf("serve: post-recovery checkpoint of %s: %v", id, err)
		}
	}
	sv.logf("serve: recovered session %s (replayed %d tail ops)", id, len(rec.Tail))
	return t, nil
}

// primeFromEnvelope fills a tenant's metadata, summary, and duplicate
// window from a checkpoint without restoring the session. name and sum
// are published under resMu because info()/list() read them without
// t.mu (ov and the duplicate window are t.mu-guarded, held by callers
// on the restore path and private to the boot scan).
func (sv *Server) primeFromEnvelope(t *tenant, ck walCheckpoint) {
	env := ck.Envelope
	t.ov = env.Overrides
	t.resMu.Lock()
	t.name = env.Name
	t.sum = tenantSummary{
		tuples:    env.Tuples,
		attrs:     env.Attrs,
		repairs:   env.Repairs,
		recleans:  env.Recleans,
		confirmed: env.Confirmed,
	}
	t.resMu.Unlock()
	for _, opID := range ck.AppliedOps {
		t.markApplied(opID)
	}
}

// openSession runs a create operation: parse the relation and the
// constraints, start the session, run the initial clean. The create
// handler and genesis replay both start sessions here.
func (sv *Server) openSession(cr *walCreate) (*holoclean.Session, *holoclean.Result, error) {
	ds, err := holoclean.ReadCSV(strings.NewReader(cr.CSV), cr.SourceColumn)
	if err != nil {
		return nil, nil, invalidOp{fmt.Errorf("reading CSV: %w", err)}
	}
	constraints, err := holoclean.ParseConstraints(strings.NewReader(cr.Constraints))
	if err != nil {
		return nil, nil, invalidOp{fmt.Errorf("parsing constraints: %w", err)}
	}
	s, err := holoclean.NewSession(ds, constraints, sv.optionsFor(cr.Overrides))
	if err != nil {
		return nil, nil, invalidOp{err}
	}
	res, err := s.Clean()
	if err != nil {
		return nil, nil, fmt.Errorf("initial clean: %w", err)
	}
	return s, res, nil
}

// stageOp validates one mutation and stages it on t's live session as a
// round without its pass (holoclean.Session.Stage): a delta batch is
// validated whole and staged op by op; a feedback batch is confirmed. A
// batch that fails validation stages nothing. The round's pass is owed,
// unless the relearn schedule ran it now — then its Result is returned.
// Call with t.mu held and t.session live.
func (sv *Server) stageOp(t *tenant, p walOp) (*holoclean.Result, error) {
	s := t.session
	switch p := p.(type) {
	case *walDeltas:
		if err := validateDeltaOps(p.Ops, s.NumTuples(), len(s.Attrs())); err != nil {
			return nil, invalidOp{err}
		}
		for _, op := range p.Ops {
			var err error
			if op.Op == "upsert" {
				_, err = s.Upsert(op.Row, op.Values)
			} else {
				err = s.Delete(op.Row)
			}
			if err != nil {
				// Unreachable given validation; surface it loudly if not.
				return nil, fmt.Errorf("applying op: %w", err)
			}
		}
		return s.Stage(nil)
	case *walFeedback:
		fb, err := t.feedbackBatch(p.Items)
		if err != nil {
			return nil, err
		}
		// Validation failures (out of range, empty value, duplicate
		// confirmation) reject the batch without touching the session.
		return s.Stage(fb)
	}
	return nil, fmt.Errorf("unknown operation %T", p)
}

// applyOp applies one mutation to t's live session and records its op
// id in the duplicate window: stageOp, then the pass the round owes. The
// live handlers and the replica warm-apply path land here; crash replay
// stages its records through the same stageOp and runs one pass after the
// last. Call with t.mu held and t.session live.
func (sv *Server) applyOp(t *tenant, p walOp) (*holoclean.Result, error) {
	res, err := sv.stageOp(t, p)
	if err == nil && res == nil {
		if res, err = t.session.Reclean(); err != nil {
			err = fmt.Errorf("reclean: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	t.markApplied(p.id())
	return res, nil
}

// replayTenant rebuilds t's live session from a recovery: decode the
// checkpoint (or run the genesis create record), stage every tail record
// in log order through stageOp — validation, interning and the op_id
// window follow the record order — and run the one pass the staged rounds
// owe. A tail with no relearn inside it costs exactly one pass, over the
// relation as the last record left it; a round the relearn schedule
// retrains on runs its own pass, as it did live. It is the one restore
// path — eviction, boot recovery, replica cold start, promotion and
// migration all come back through here; determinism makes the result
// bit-identical to the state that was checkpointed and logged. On success
// t holds a live session with its last result published.
func (sv *Server) replayTenant(t *tenant, rec *store.Recovery) error {
	tail := rec.Tail
	var res *holoclean.Result
	owed := false // whether t.session owes the pass that yields its result
	switch {
	case rec.Checkpoint != nil:
		ck, err := decodeCheckpoint(t.id, rec.Checkpoint)
		if err != nil {
			return err
		}
		sv.primeFromEnvelope(t, ck)
		s, err := holoclean.StageSession(bytes.NewReader(ck.Envelope.Session), sv.optionsFor(t.ov))
		if err != nil {
			return fmt.Errorf("restoring checkpoint of %s: %w", t.id, err)
		}
		t.session, owed = s, true
	case len(tail) > 0 && tail[0].Op == store.OpCreate:
		var cr walCreate
		if err := json.Unmarshal(tail[0].Payload, &cr); err != nil {
			return fmt.Errorf("decoding create record of %s: %w", t.id, err)
		}
		s, r, err := sv.openSession(&cr)
		if err != nil {
			return fmt.Errorf("replaying create of %s: %w", t.id, err)
		}
		t.ov = cr.Overrides
		t.resMu.Lock()
		t.name = cr.Name
		t.resMu.Unlock()
		t.session, res = s, r
		tail = tail[1:]
	default:
		return fmt.Errorf("session %s has neither a checkpoint nor a create record to restore from", t.id)
	}
	for _, r := range tail {
		p, err := sv.decodeRecord(t, r)
		if err != nil {
			return err
		}
		if p == nil {
			continue
		}
		rr, err := sv.stageOp(t, p)
		if err != nil {
			return fmt.Errorf("replaying %s record %d of %s: %w", r.Op, r.Seq, t.id, err)
		}
		t.markApplied(p.id())
		if rr != nil {
			res = rr // the round relearned: its pass ran
		}
		owed = rr == nil
	}
	if owed {
		r, err := t.session.Reclean()
		if err != nil {
			return fmt.Errorf("replaying the tail of %s: %w", t.id, err)
		}
		res = r
	}
	if res == nil {
		return fmt.Errorf("recovered session %s has no result", t.id)
	}
	return t.setResult(res)
}

// revive rebuilds t's live session from its log. Call with a job slot
// acquired and t.mu held, in that order (a revive replays the pipeline).
func (sv *Server) revive(t *tenant) error {
	rec, err := t.log.Recover()
	if err != nil {
		return fmt.Errorf("serve: recovering %s: %w", t.id, err)
	}
	t.applied, t.appliedOrder = nil, nil
	if err := sv.replayTenant(t, rec); err != nil {
		return fmt.Errorf("serve: restoring %s: %w", t.id, err)
	}
	t.walSeq = t.log.Stats().Seq
	sv.logf("serve: restored session %s (%d tuples)", t.id, t.session.NumTuples())
	return nil
}

// decodeRecord decodes one logged record of t into the mutation it
// replays, nil for records that carry none: a checkpoint streaming past a
// live session tops up the duplicate window and is otherwise skipped, as
// are informational markers; a mid-log create is an error. Call with t.mu
// held.
func (sv *Server) decodeRecord(t *tenant, r store.Record) (walOp, error) {
	var p walOp
	switch r.Op {
	case store.OpDeltas:
		p = new(walDeltas)
	case store.OpFeedback:
		p = new(walFeedback)
	case store.OpCheckpoint:
		// A checkpoint streaming past a live replica session carries no
		// new state — the session already is that state — but its applied
		// window tops up duplicate detection after the leader compacted.
		if ck, err := decodeCheckpoint(t.id, r.Payload); err == nil {
			for _, opID := range ck.AppliedOps {
				t.markApplied(opID)
			}
		}
		return nil, nil
	case store.OpCreate:
		return nil, fmt.Errorf("unexpected mid-log create record %d of %s", r.Seq, t.id)
	default:
		return nil, nil
	}
	if err := json.Unmarshal(r.Payload, p); err != nil {
		return nil, fmt.Errorf("decoding %s record %d of %s: %w", r.Op, r.Seq, t.id, err)
	}
	return p, nil
}

// applyRecord applies one logged record to t's live session: decode,
// then the same applyOp the live handlers call. Returns the run result
// for records that reclean (deltas, feedback), nil for the rest. Call
// with t.mu held and t.session live.
func (sv *Server) applyRecord(t *tenant, r store.Record) (*holoclean.Result, error) {
	p, err := sv.decodeRecord(t, r)
	if err != nil || p == nil {
		return nil, err
	}
	res, err := sv.applyOp(t, p)
	if err != nil {
		return nil, fmt.Errorf("replaying %s record %d of %s: %w", r.Op, r.Seq, t.id, err)
	}
	return res, nil
}

// feedbackBatch maps wire feedback items (attributes by name) to
// library feedback against t's live session schema.
func (t *tenant) feedbackBatch(items []FeedbackItem) ([]holoclean.Feedback, error) {
	attrs := t.session.Attrs()
	fb := make([]holoclean.Feedback, 0, len(items))
	for i, item := range items {
		attr := -1
		for a, name := range attrs {
			if name == item.Attr {
				attr = a
				break
			}
		}
		if attr < 0 {
			return nil, fmt.Errorf("%w: item %d: unknown attribute %q", holoclean.ErrInvalidFeedback, i, item.Attr)
		}
		fb = append(fb, holoclean.Feedback{
			Cell:  holoclean.Cell{Tuple: item.Tuple, Attr: attr},
			Value: item.Value,
		})
	}
	return fb, nil
}

// --- background compactor ---

// compactor periodically sweeps every tenant log: logs whose tail
// outgrew the ops budget get a fresh checkpoint (TryLock only — a
// tenant mid-reclean is skipped, never blocked, and caught next sweep),
// and logs whose dead prefix exceeds the size threshold are compacted.
// Compaction itself takes only the log's own lock for the duration of
// a small tail copy: read traffic and other tenants' jobs never wait.
func (sv *Server) compactor(stop <-chan struct{}) {
	period := sv.cfg.CompactEvery
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			sv.compactSweep()
		}
	}
}

// compactSweep runs one pass of the compactor policy over all tenants.
func (sv *Server) compactSweep() {
	for _, t := range sv.tenants() {
		if !sv.isLeader(t.id) {
			// A mirror's log layout belongs to its leader; local
			// checkpoints or compaction would fork the byte-identical
			// prefix the shipper maintains.
			continue
		}
		if t.log.Stats().OpsSinceCheckpoint >= sv.cfg.CheckpointEvery {
			// The inline checkpoint on the mutating path normally keeps
			// the tail short; this catches tenants that went idle right
			// after a burst. TryLock: never wait behind a running job.
			if t.mu.TryLock() {
				if t.session != nil && sv.lookup(t.id) == t {
					if err := sv.checkpointLocked(t); err != nil {
						sv.logf("serve: compactor checkpoint of %s: %v", t.id, err)
					}
				}
				t.mu.Unlock()
			}
		}
		if t.log.CompactionDebt() >= sv.cfg.CompactAfterBytes {
			if n, err := t.log.Compact(); err != nil {
				sv.logf("serve: compacting %s: %v", t.id, err)
			} else if n > 0 {
				sv.logf("serve: compacted log of %s (%d bytes reclaimed)", t.id, n)
			}
		}
	}
}
