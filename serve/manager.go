package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"holoclean"
	"holoclean/internal/store"
)

// errBusy is returned by acquire when the bounded job queue is full; the
// HTTP layer maps it to 429 + Retry-After.
var errBusy = errors.New("serve: job queue full")

// tenant is one managed cleaning session. Locking model:
//
//   - mu serializes every use of session, which is not goroutine-safe.
//     Heavy pipeline work (clean, reclean, feedback, restore) runs with
//     mu held, so concurrent requests against one session queue up while
//     distinct sessions proceed in parallel.
//   - resMu guards the derived read view (last result + summary). Read
//     endpoints serve from it without touching mu, so a review or
//     repairs GET never blocks behind another tenant's — or this
//     tenant's — running reclean.
//   - lastUsed is atomic so any handler can stamp activity without
//     either lock.
//
// Lock order is always job slot → tenant.mu → resMu: heavy handlers
// claim a queue slot before the tenant lock, so every waiter — including
// the Nth writer to one hot session — is counted against the bounded
// queue and sheds with 429 instead of piling up invisibly on the mutex.
// A tenant-lock holder therefore always already owns a slot and never
// waits for one, and the janitor takes tenant.mu only via TryLock and
// never a slot, so the hierarchy has no cycle.
// overrides are the per-session option knobs a create request may set;
// they must survive eviction and restarts, since restoring a session
// with different options would silently change its results.
type overrides struct {
	Seed         int64    `json:"seed,omitempty"`
	Tau          *float64 `json:"tau,omitempty"`
	RelearnEvery int      `json:"relearn_every,omitempty"`
}

// serverSnapshot is the session envelope a checkpoint carries: the
// library's session snapshot plus the server-side metadata needed to
// restore it with identical options, and the listing summary so a
// rebooted daemon can report evicted sessions truthfully without
// parsing (or restoring) the session blob.
type serverSnapshot struct {
	Name      string          `json:"name,omitempty"`
	Overrides overrides       `json:"overrides"`
	Tuples    int             `json:"tuples"`
	Attrs     []string        `json:"attrs,omitempty"`
	Repairs   int             `json:"repairs"`
	Recleans  int             `json:"recleans"`
	Confirmed int             `json:"confirmed"`
	Session   json.RawMessage `json:"session"`
}

type tenant struct {
	id      string
	name    string
	ov      overrides
	created time.Time

	// log is the tenant's write-ahead operation log — its one durable
	// form, and what an evicted session revives from. Set before the
	// tenant is registered and immutable afterwards, so stats reads need
	// no lock.
	log *store.Log

	mu      sync.Mutex
	session *holoclean.Session
	// applied is the duplicate-detection window of op ids (guarded by
	// mu; appliedOrder retires them FIFO at maxAppliedOps).
	applied      map[string]bool
	appliedOrder []string

	// walSeq is the sequence number of the last record applied to the
	// warm session of a tenant this node mirrors (guarded by mu);
	// promotion rebuilds from the log when it trails the durable
	// position.
	walSeq uint64

	resMu sync.RWMutex
	last  *holoclean.Result
	// csv is the repaired relation rendered at publish time. It exists
	// because Result.Repaired shares its value dictionary with the live
	// session dataset (Dataset.Clone shares dicts), so serializing it
	// lazily on GET /dataset would race later deltas interning new
	// values; rendering under tenant.mu while the session is quiescent
	// makes the read path dict-free.
	csv []byte
	sum tenantSummary

	lastUsed atomic.Int64 // unix nanoseconds
}

// tenantSummary is the listing metadata that survives eviction.
type tenantSummary struct {
	tuples    int
	attrs     []string
	repairs   int
	recleans  int
	confirmed int
}

func (t *tenant) touch(now time.Time) { t.lastUsed.Store(now.UnixNano()) }

// dropLive releases the session and the read view derived from it; the
// tenant lives on in its durable form until revive. Call with t.mu held.
func (t *tenant) dropLive() {
	t.session = nil
	t.walSeq = 0
	t.resMu.Lock()
	t.last, t.csv = nil, nil
	t.resMu.Unlock()
}

// setResult publishes a finished run to the read view. Call with t.mu held.
func (t *tenant) setResult(res *holoclean.Result) error {
	s := t.session
	var csv bytes.Buffer
	if err := res.Repaired.WriteCSV(&csv); err != nil {
		return err
	}
	t.resMu.Lock()
	t.last = res
	t.csv = csv.Bytes()
	t.sum = tenantSummary{
		tuples:    s.NumTuples(),
		attrs:     s.Attrs(),
		repairs:   len(res.Repairs),
		recleans:  s.Recleans(),
		confirmed: s.ConfirmedCount(),
	}
	t.resMu.Unlock()
	return nil
}

// info renders the listing view; safe without t.mu.
func (t *tenant) info() SessionInfo {
	t.resMu.RLock()
	defer t.resMu.RUnlock()
	out := SessionInfo{
		ID:        t.id,
		Name:      t.name,
		Tuples:    t.sum.tuples,
		Attrs:     t.sum.attrs,
		Repairs:   t.sum.repairs,
		Recleans:  t.sum.recleans,
		Confirmed: t.sum.confirmed,
		Evicted:   t.last == nil,
	}
	if t.last != nil {
		out.Stats = runStatsInfo(t.last.Stats)
	}
	out.Store = t.storeStats()
	return out
}

// acquire claims a slot on the bounded global job queue. At most
// MaxConcurrentJobs heavy jobs run at once; up to QueueDepth more may
// wait. Beyond that the queue refuses immediately with errBusy — the
// backpressure signal — instead of letting latency grow without bound.
func (sv *Server) acquire(ctx context.Context) (release func(), err error) {
	if sv.draining.Load() {
		return nil, errDraining
	}
	if int(sv.queued.Add(1)) > sv.cfg.MaxConcurrentJobs+sv.cfg.QueueDepth {
		sv.queued.Add(-1)
		return nil, errBusy
	}
	select {
	case sv.sem <- struct{}{}:
		start := time.Now()
		return func() {
			sv.observeJob(time.Since(start))
			<-sv.sem
			sv.queued.Add(-1)
		}, nil
	case <-ctx.Done():
		sv.queued.Add(-1)
		return nil, ctx.Err()
	}
}

// observeJob feeds the EWMA job duration behind Retry-After estimates.
func (sv *Server) observeJob(d time.Duration) {
	for {
		old := sv.jobEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if sv.jobEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates how long until a queue slot frees up: the
// queue length times the average job duration, divided by the slots
// draining it in parallel; at least one second.
func (sv *Server) retryAfterSeconds() int {
	est := time.Duration(sv.jobEWMA.Load()) * time.Duration(sv.queued.Load()) /
		time.Duration(sv.cfg.MaxConcurrentJobs)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// lookup returns the tenant for id, or nil.
func (sv *Server) lookup(id string) *tenant {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.sessions[id]
}

// register adds a fully-initialized tenant under a fresh id.
func (sv *Server) register(t *tenant) {
	sv.mu.Lock()
	sv.sessions[t.id] = t
	sv.mu.Unlock()
}

// tenants returns the registered tenants in no particular order.
func (sv *Server) tenants() []*tenant {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make([]*tenant, 0, len(sv.sessions))
	for _, t := range sv.sessions {
		out = append(out, t)
	}
	return out
}

// nextID mints a session id. Ids are dense and deterministic ("s1",
// "s2", …) so transcripts and tests are reproducible. In cluster mode
// only ids the ring places on this node are minted — creates never
// redirect, and since ownership partitions the id space, two nodes can
// never mint the same id.
func (sv *Server) nextID() string {
	for {
		id := fmt.Sprintf("s%d", sv.idSeq.Add(1))
		if sv.ring == nil || sv.ring.Owner(id) == sv.cfg.Self {
			return id
		}
	}
}

// remove deletes a tenant and its log. Deleting the durable state is
// part of the operation, not a best-effort afterthought: on failure the
// tenant stays registered and the error is returned for the API
// response — silently dropping the entry while the file survives would
// resurrect "deleted" data at the next restart. The tombstone makes a
// retry safe.
func (sv *Server) remove(id string) (found bool, err error) {
	t := sv.lookup(id)
	if t == nil {
		return false, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sv.lookup(id) != t {
		return false, nil // lost a race against another DELETE
	}
	if err := sv.store.Remove(id); err != nil {
		return true, err
	}
	sv.mu.Lock()
	delete(sv.sessions, id)
	sv.mu.Unlock()
	t.session = nil
	return true, nil
}

// list returns session infos sorted by id.
func (sv *Server) list() []SessionInfo {
	tenants := sv.tenants()
	out := make([]SessionInfo, 0, len(tenants))
	for _, t := range tenants {
		out = append(out, sv.sessionInfo(t))
	}
	// Minted ids are a dense numeric sequence; order by the number so
	// s2 sorts before s10 (creation order), not lexically after it.
	seq := func(id string) int64 {
		var n int64
		if c, _ := fmt.Sscanf(id, "s%d", &n); c == 1 {
			return n
		}
		return -1
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := seq(out[i].ID), seq(out[j].ID)
		if si != sj {
			return si < sj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ensureLive revives t's session if it was evicted. Call with a job
// slot acquired and t.mu held, in that order.
func (sv *Server) ensureLive(t *tenant) error {
	if t.session != nil {
		return nil
	}
	return sv.revive(t)
}

// evictIdle checkpoints and releases every session idle since before
// cutoff. Sessions whose lock is held (an operation is running) are
// skipped — they are not idle. Returns the number evicted.
func (sv *Server) evictIdle(cutoff time.Time) int {
	evicted := 0
	for _, t := range sv.tenants() {
		if t.lastUsed.Load() >= cutoff.UnixNano() {
			continue
		}
		if !t.mu.TryLock() {
			continue
		}
		// Re-check registration under the lock: a DELETE racing this
		// sweep may have removed the tenant after the list was taken,
		// and snapshotting it would resurrect deleted data on restart.
		if t.session != nil && sv.lookup(t.id) == t {
			if err := sv.evictLocked(t); err != nil {
				sv.logf("serve: evicting %s: %v", t.id, err)
			} else {
				evicted++
			}
		}
		t.mu.Unlock()
	}
	return evicted
}

// evictLocked converges t to a checkpoint and drops the heavy state.
// Call with t.mu held. The session snapshot is deterministic, so
// re-evicting an untouched restored session checkpoints identical
// session bytes.
func (sv *Server) evictLocked(t *tenant) error {
	// A mirror's durable truth is the shipped log; checkpointing or
	// compacting it here would diverge from the leader's layout. It just
	// releases the warm state — reads restore from the log.
	if sv.isLeader(t.id) {
		if err := sv.converge(t); err != nil {
			return err
		}
	}
	t.dropLive()
	sv.logf("serve: evicted idle session %s", t.id)
	return nil
}

// janitor periodically evicts idle sessions until stop is closed.
func (sv *Server) janitor(stop <-chan struct{}) {
	sweep := sv.cfg.SweepEvery
	if sweep <= 0 {
		sweep = sv.cfg.IdleTimeout / 2
	}
	if sweep <= 0 {
		return
	}
	tick := time.NewTicker(sweep)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			sv.evictIdle(now.Add(-sv.cfg.IdleTimeout))
		}
	}
}
