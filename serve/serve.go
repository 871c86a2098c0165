// Package serve turns the holoclean library into a concurrent cleaning
// service: an HTTP/JSON API managing many named cleaning sessions at
// once. It is the serving half of the paper's Section 2.2 feedback loop
// — clients create a session from an uploaded CSV and denial-constraint
// file, stream delta batches that are coalesced into single incremental
// recleans, page through the low-confidence review queue, and post
// confirmations that feed back into the model.
//
// Concurrency contract. A holoclean.Session is not goroutine-safe, so
// each session is guarded by its own mutex and all work on it is
// serialized; distinct sessions clean in parallel. Heavy pipeline work
// (initial clean, reclean, feedback, snapshot restore) additionally runs
// through a bounded global job queue: at most MaxConcurrentJobs jobs
// execute at once and at most QueueDepth more may wait, so N tenants
// share the machine fairly; past that the server answers 429 with a
// Retry-After estimate instead of queueing unboundedly. Idle sessions
// are evicted to deterministic checkpoints and restored transparently
// on next use.
//
// Endpoints:
//
//	GET    /healthz
//	POST   /sessions                      create (JSON or multipart: data, dcs)
//	GET    /sessions                      list
//	GET    /sessions/{id}                 status + last run stats
//	DELETE /sessions/{id}                 drop session (and its log)
//	GET    /sessions/{id}/repairs         paginated repairs, (tuple, attr) order
//	GET    /sessions/{id}/dataset         repaired relation as CSV
//	POST   /sessions/{id}/deltas          upsert/delete batch → one Reclean
//	GET    /sessions/{id}/review          low-confidence repairs, ascending p
//	POST   /sessions/{id}/feedback        confirmations → CleanWithFeedback path
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holoclean"
	"holoclean/internal/cluster"
	"holoclean/internal/store"
	"holoclean/internal/telemetry"
)

// Config tunes the server. The zero value is usable: defaults are filled
// in by New.
type Config struct {
	// Options is the base holoclean configuration every session starts
	// from (per-session create requests may override Seed, Tau and
	// RelearnEvery). Nil means holoclean.DefaultOptions.
	Options *holoclean.Options
	// Workers is each job's shard worker-pool size
	// (holoclean.Options.Workers). 0 derives a fair share:
	// GOMAXPROCS / MaxConcurrentJobs, at least 1 — so the configured
	// concurrency never oversubscribes the machine.
	Workers int
	// MaxConcurrentJobs bounds heavy pipeline jobs running at once
	// (default 2).
	MaxConcurrentJobs int
	// QueueDepth bounds jobs waiting for a slot beyond the running ones;
	// requests beyond running+waiting get 429. Zero means no waiting at
	// all — every job beyond MaxConcurrentJobs is refused immediately
	// (cmd/holocleand defaults its flag to 8).
	QueueDepth int
	// IdleTimeout evicts sessions untouched for this long to a
	// checkpoint record in the session's log (0 disables eviction).
	IdleTimeout time.Duration
	// SweepEvery is the janitor period (default IdleTimeout/2).
	SweepEvery time.Duration
	// StoreDir is the session store's directory: one append-only
	// write-ahead log per session, fsync'd (group commit) before any
	// mutating request is acknowledged, with periodic checkpoint records
	// and background compaction. On startup every log is recovered —
	// load the latest checkpoint, replay the tail — so a hard crash loses
	// nothing that was acknowledged. Empty means an ephemeral store: the
	// same logs in a fresh temporary directory that Close removes, so
	// sessions live exactly as long as the server.
	StoreDir string
	// CheckpointEvery is the ops budget between checkpoint records
	// (default 16): the maximum tail length recovery has to replay.
	CheckpointEvery int
	// CompactAfterBytes compacts a log once the dead prefix before its
	// latest checkpoint exceeds this size (default 1 MiB).
	CompactAfterBytes int64
	// CompactEvery is the background compactor period (default 30s).
	CompactEvery time.Duration
	// MaxUploadBytes caps request bodies (default 32 MiB).
	MaxUploadBytes int64
	// Self is this node's advertised base URL (e.g.
	// "http://10.0.0.1:8080"), required in cluster mode; peers redirect
	// writes and ship WAL frames to it.
	Self string
	// Peers is the full static peer list — every node's advertised URL,
	// including Self, identical on all nodes. Setting it enables cluster
	// mode: tenants are placed on a consistent-hash ring, each node
	// mirrors the logs of tenants it stands by for (WAL shipping), and
	// writes landing on a non-leader answer 307 to the leader. Requires
	// StoreDir.
	Peers []string
	// ShipInterval is the shippers' catalog poll period and error
	// backoff (default 250ms).
	ShipInterval time.Duration
	// ShipWaitMS is the long-poll budget shippers ask leaders to hold a
	// tail request open for (default 5000).
	ShipWaitMS int
	// Logf receives operational log lines; nil silences them.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, enables the metrics surface: the
	// registry collects request latency, job-queue, per-stage pipeline,
	// WAL, and replication-lag series, and GET /metrics serves them in
	// Prometheus text format. Nil (the default) disables telemetry
	// entirely — /metrics 404s and every record point is an
	// allocation-free no-op.
	Telemetry *telemetry.Registry
}

// Server is the HTTP serving layer. Create one with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	mu       sync.Mutex
	sessions map[string]*tenant
	sem      chan struct{}
	queued   atomic.Int32
	jobEWMA  atomic.Int64
	idSeq    atomic.Int64
	store    *store.Store
	tmpDir   string // the ephemeral store's directory, removed by Close; "" with Config.StoreDir
	draining atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup // janitor, compactor, shippers: what Close waits for
	tel      *serverMetrics // nil when Config.Telemetry is unset

	// Cluster mode (nil/empty outside it): the placement ring, one WAL
	// shipper per other peer, the route-override map consulted before
	// the ring, and the leader-side record of follower positions.
	ring      *cluster.Ring
	shippers  []*cluster.Shipper
	routeMu   sync.RWMutex
	routeTo   map[string]string
	followMu  sync.Mutex
	followers map[string]map[string]followerView
}

// New builds a Server from cfg, opens the session store — recovering
// every log under StoreDir, or creating an ephemeral directory when it
// is empty — and starts the eviction janitor and log compactor.
// Call Close to stop the background goroutines, or Shutdown for a
// graceful drain.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 2
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.Workers <= 0 {
		cfg.Workers = max(1, runtime.GOMAXPROCS(0)/cfg.MaxConcurrentJobs)
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 32 << 20
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 16
	}
	if cfg.CompactAfterBytes <= 0 {
		cfg.CompactAfterBytes = 1 << 20
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 30 * time.Second
	}
	sv := &Server{
		cfg:      cfg,
		sessions: make(map[string]*tenant),
		sem:      make(chan struct{}, cfg.MaxConcurrentJobs),
		stop:     make(chan struct{}),
	}
	if cfg.Telemetry != nil {
		sv.tel = newServerMetrics(cfg.Telemetry, sv)
	}
	sv.routes()
	if len(cfg.Peers) > 0 {
		// The ring must exist before the store is recovered, so boot can
		// tell which recovered logs this node leads and which it mirrors.
		if err := sv.startCluster(); err != nil {
			return nil, err
		}
	}
	dir := cfg.StoreDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "holocleand-store-")
		if err != nil {
			return nil, fmt.Errorf("serve: creating ephemeral store: %w", err)
		}
		dir, sv.tmpDir = tmp, tmp
		sv.logf("serve: no store directory configured, sessions live in ephemeral store %s (removed on exit)", dir)
	}
	st, err := store.Open(dir)
	if err != nil {
		sv.removeTmpDir()
		return nil, err
	}
	sv.store = st
	if sv.tel != nil {
		st.SetMetrics(sv.tel.storeMetrics())
	}
	sv.loadStore()
	sv.background(func() { sv.compactor(sv.stop) })
	if sv.ring != nil {
		sv.startShippers()
	}
	if cfg.IdleTimeout > 0 {
		sv.background(func() { sv.janitor(sv.stop) })
	}
	return sv, nil
}

// background runs fn on a goroutine that Close waits for; fn must return
// once sv.stop is closed.
func (sv *Server) background(fn func()) {
	sv.bg.Add(1)
	go func() {
		defer sv.bg.Done()
		fn()
	}()
}

// Close stops the background goroutines (janitor, compactor, shippers
// with their followers), waits for them to exit — a follower can be
// inside the store appending shipped frames — and only then releases the
// store's file handles and removes an ephemeral store's directory.
// In-flight requests finish normally; nothing acknowledged needs
// flushing — appends are durable before their ack. For a graceful drain
// that also checkpoints every live session, use Shutdown.
func (sv *Server) Close() {
	sv.stopOnce.Do(func() { close(sv.stop) })
	sv.bg.Wait()
	sv.store.Close()
	sv.removeTmpDir()
}

// removeTmpDir deletes the ephemeral store's directory, if this server
// created one.
func (sv *Server) removeTmpDir() {
	if sv.tmpDir == "" {
		return
	}
	if err := os.RemoveAll(sv.tmpDir); err != nil {
		sv.logf("serve: removing ephemeral store %s: %v", sv.tmpDir, err)
	}
}

// errDraining rejects new heavy jobs during Shutdown; the HTTP layer
// maps it to 503.
var errDraining = errors.New("serve: shutting down")

// Shutdown drains the server gracefully: new heavy jobs are refused
// with 503, in-flight jobs run to completion (or ctx expiry), every
// live session is checkpointed to the store, and background goroutines
// stop. Safe to call while requests — including a running reclean —
// are in flight: the reclean finishes, its WAL append lands, and the
// final checkpoint includes it. Returns ctx.Err() if the drain timed
// out (the store is still consistent then — the WAL has every
// acknowledged op — it just recovers from an older checkpoint plus a
// longer tail).
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.draining.Store(true)
	defer sv.Close()
	// Drain: wait for running and queued jobs to finish. Job slots are
	// counted in sv.queued; new ones can no longer enter (draining).
	for sv.queued.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, t := range sv.tenants() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		t.mu.Lock()
		if t.session != nil && sv.isLeader(t.id) {
			if err := sv.converge(t); err != nil {
				sv.logf("serve: shutdown checkpoint of %s: %v", t.id, err)
			}
		}
		t.mu.Unlock()
	}
	return nil
}

func (sv *Server) logf(format string, args ...any) {
	if sv.cfg.Logf != nil {
		sv.cfg.Logf(format, args...)
	}
}

// sessionOptions is the base option set sessions run with.
func (sv *Server) sessionOptions() holoclean.Options {
	var o holoclean.Options
	if sv.cfg.Options != nil {
		o = *sv.cfg.Options
	} else {
		o = holoclean.DefaultOptions()
	}
	o.Workers = sv.cfg.Workers
	o.Tracer = sv.tel.tracer()
	return o
}

// optionsFor applies a session's create-time overrides to the base
// options. Restores go through the same path, so an evicted session
// always comes back under the options it was created with.
func (sv *Server) optionsFor(ov overrides) holoclean.Options {
	o := sv.sessionOptions()
	if ov.Seed != 0 {
		o.Seed = ov.Seed
	}
	if ov.Tau != nil {
		o.Tau = *ov.Tau
	}
	if ov.RelearnEvery != 0 {
		o.RelearnEvery = ov.RelearnEvery
	}
	return o
}

func (sv *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealth)
	if sv.tel != nil {
		// Routed only when telemetry is on: a disabled server answers
		// /metrics with the mux's plain 404.
		mux.HandleFunc("GET /metrics", sv.handleMetrics)
	}
	mux.HandleFunc("POST /sessions", sv.handleCreate)
	mux.HandleFunc("GET /sessions", sv.handleList)
	mux.HandleFunc("GET /sessions/{id}", sv.handleStatus)
	mux.HandleFunc("DELETE /sessions/{id}", sv.handleDelete)
	mux.HandleFunc("GET /sessions/{id}/repairs", sv.handleRepairs)
	mux.HandleFunc("GET /sessions/{id}/dataset", sv.handleDataset)
	mux.HandleFunc("POST /sessions/{id}/deltas", sv.handleDeltas)
	mux.HandleFunc("GET /sessions/{id}/review", sv.handleReview)
	mux.HandleFunc("POST /sessions/{id}/feedback", sv.handleFeedback)
	// Replication protocol (leader side) and cluster control. The
	// /replicate handlers never claim a job slot, so a draining leader
	// keeps streaming its tail while refusing writes.
	mux.HandleFunc("GET "+cluster.PathLogs, sv.handleReplicateLogs)
	mux.HandleFunc("GET "+cluster.PathWAL+"{id}", sv.handleReplicateWAL)
	mux.HandleFunc("POST "+cluster.PathAccept+"{id}", sv.handleReplicateAccept)
	mux.HandleFunc("POST /cluster/promote/{id}", sv.handlePromote)
	mux.HandleFunc("POST /cluster/route/{id}", sv.handleRoute)
	mux.HandleFunc("POST /cluster/migrate/{id}", sv.handleMigrate)
	mux.HandleFunc("POST /cluster/demote", sv.handleDemote)
	sv.mux = mux
}

// ServeHTTP implements http.Handler.
func (sv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, sv.cfg.MaxUploadBytes)
	}
	if sv.tel == nil {
		sv.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := statusRecorder{ResponseWriter: w, status: http.StatusOK}
	sv.mux.ServeHTTP(&rec, r)
	// r.Pattern is the matched route after dispatch — a bounded label
	// set (the route table), never the raw path.
	endpoint := r.Pattern
	if endpoint == "" {
		endpoint = "unmatched"
	}
	sv.tel.observeRequest(endpoint, rec.status, time.Since(start))
}

// --- response helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// opStatus maps an openSession/applyOp failure to its HTTP status: 400
// when the request's content is at fault, 422 when the pipeline failed
// on well-formed input.
func opStatus(err error) int {
	var bad invalidOp
	if errors.As(err, &bad) || errors.Is(err, holoclean.ErrInvalidFeedback) {
		return http.StatusBadRequest
	}
	return http.StatusUnprocessableEntity
}

// writeBusy is the backpressure response: the bounded job queue is full.
func (sv *Server) writeBusy(w http.ResponseWriter) {
	sv.tel.rejected()
	w.Header().Set("Retry-After", strconv.Itoa(sv.retryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
}

// acquireOr claims a job-queue slot, writing the 429/503 response
// itself on failure. Callers must call release() iff ok.
func (sv *Server) acquireOr(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := sv.acquire(r.Context())
	if err == nil {
		return release, true
	}
	if errors.Is(err, errBusy) {
		sv.writeBusy(w)
	} else {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
	return nil, false
}

// tenantOr404 resolves {id} and stamps activity. In cluster mode a
// tenant this node holds no copy of is redirected to its leader
// instead of 404ing.
func (sv *Server) tenantOr404(w http.ResponseWriter, r *http.Request) *tenant {
	t := sv.lookup(r.PathValue("id"))
	if t == nil {
		if sv.redirectRead(w, r, r.PathValue("id")) {
			return nil
		}
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return nil
	}
	t.touch(time.Now())
	return t
}

// --- handlers ---

func (sv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	tenants := sv.tenants()
	resp := HealthResponse{OK: true, Sessions: len(tenants), Queued: int(sv.queued.Load()), Draining: sv.draining.Load()}
	resp.Cluster = sv.clusterHealth(tenants)
	resp.Store = &StoreHealth{Enabled: true, Dir: sv.store.Dir()}
	for _, t := range tenants {
		st := t.log.Stats()
		resp.Store.WALBytes += st.WALBytes
		resp.Store.OpsSinceCheckpoint += st.OpsSinceCheckpoint
	}
	writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sv.list())
}

func (sv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t := sv.tenantOr404(w, r)
	if t == nil {
		return
	}
	writeJSON(w, http.StatusOK, sv.sessionInfo(t))
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if sv.redirectWrite(w, r, r.PathValue("id")) {
		return
	}
	found, err := sv.remove(r.PathValue("id"))
	if err != nil {
		// The durable state survived the delete attempt: the session
		// stays registered and the failure is the response — reporting
		// success here would resurrect the "deleted" session at the
		// next restart. The operation is retryable.
		writeError(w, http.StatusInternalServerError, "removing session: %v", err)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// parseCreate reads a CreateRequest from JSON or multipart form bodies.
func parseCreate(r *http.Request) (*CreateRequest, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "multipart/form-data") {
		if err := r.ParseMultipartForm(8 << 20); err != nil {
			return nil, fmt.Errorf("parsing multipart form: %w", err)
		}
		part := func(name string) (string, error) {
			if f, _, err := r.FormFile(name); err == nil {
				defer f.Close()
				b, err := io.ReadAll(f)
				if err != nil {
					return "", err
				}
				return string(b), nil
			}
			return r.FormValue(name), nil
		}
		req := &CreateRequest{Name: r.FormValue("name"), SourceColumn: r.FormValue("source_column")}
		var err error
		if req.CSV, err = part("data"); err != nil {
			return nil, err
		}
		if req.Constraints, err = part("dcs"); err != nil {
			return nil, err
		}
		if v := r.FormValue("seed"); v != "" {
			if req.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
				return nil, fmt.Errorf("bad seed %q", v)
			}
		}
		if v := r.FormValue("tau"); v != "" {
			tau, ok := parseFinite(v)
			if !ok {
				return nil, fmt.Errorf("bad tau %q", v)
			}
			req.Tau = &tau
		}
		if v := r.FormValue("relearn_every"); v != "" {
			if req.RelearnEvery, err = strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("bad relearn_every %q", v)
			}
		}
		return req, nil
	}
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding JSON body: %w", err)
	}
	return &req, nil
}

// parseFinite parses a float form or query value, refusing NaN and ±Inf:
// neither the session log nor a JSON response can carry them.
func parseFinite(v string) (float64, bool) {
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, err := parseCreate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if strings.TrimSpace(req.CSV) == "" {
		writeError(w, http.StatusBadRequest, "missing dataset CSV (field \"data\" / \"csv\")")
		return
	}
	cr := &walCreate{
		Name: req.Name, CSV: req.CSV, Constraints: req.Constraints, SourceColumn: req.SourceColumn,
		Overrides: overrides{Seed: req.Seed, Tau: req.Tau, RelearnEvery: req.RelearnEvery},
	}
	release, ok := sv.acquireOr(w, r)
	if !ok {
		return
	}
	defer release()
	session, res, err := sv.openSession(cr)
	if err != nil {
		writeError(w, opStatus(err), "%v", err)
		return
	}

	t := &tenant{id: sv.nextID(), name: cr.Name, ov: cr.Overrides, created: time.Now(), session: session}
	t.touch(time.Now())
	if err := t.setResult(res); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// Durability before the ack: the create request (replayable from
	// genesis) plus a checkpoint of the cleaned state, so recovery
	// normally skips the expensive initial clean. The tenant is not
	// registered yet, so no lock is needed.
	if t.log, err = sv.store.Log(t.id); err == nil {
		err = t.log.Append(store.OpCreate, cr)
	}
	if err != nil {
		sv.store.Remove(t.id) // no orphan genesis logs
		writeError(w, http.StatusInternalServerError, "logging create: %v", err)
		return
	}
	if err := sv.checkpointLocked(t); err != nil {
		// The create record alone recovers the session (genesis
		// replay); a missing first checkpoint only costs boot time.
		sv.logf("serve: initial checkpoint of %s: %v", t.id, err)
	}
	sv.register(t)
	sv.logf("serve: created session %s (%d tuples, %d repairs)", t.id, session.NumTuples(), len(res.Repairs))
	writeJSON(w, http.StatusCreated, sv.sessionInfo(t))
}

// walFail reconciles a tenant whose WAL append failed after the
// operation was applied in memory: the live session is ahead of the
// durable log, so it is dropped — the next touch restores from the log,
// which is the state the client was actually told about (the failed op
// was answered 500, never acked). Call with t.mu held.
func (sv *Server) walFail(t *tenant, op store.Op, err error) {
	sv.logf("serve: %s batch of %s failed to log, dropping live state for re-restore: %v", op, t.id, err)
	t.dropLive()
}

// pageParams parses offset/limit query parameters.
func pageParams(r *http.Request, total int) (offset, limit int, err error) {
	offset, limit = 0, total
	if v := r.URL.Query().Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q", v)
		}
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q", v)
		}
	}
	return offset, limit, nil
}

// readView returns the tenant's published result and rendered CSV,
// restoring the session first if it was evicted (which needs a job
// slot). The returned values are immutable snapshots: they never touch
// the live session's value dictionary, so readers are safe against
// concurrent deltas.
func (sv *Server) readView(t *tenant, r *http.Request) (*holoclean.Result, []byte, error) {
	t.resMu.RLock()
	last, csv := t.last, t.csv
	t.resMu.RUnlock()
	if last != nil {
		return last, csv, nil
	}
	// Evicted: restoring is heavy, so claim a queue slot first (slot →
	// tenant.mu, the global lock order), then re-check under the lock —
	// another request may have restored meanwhile.
	release, err := sv.acquire(r.Context())
	if err != nil {
		return nil, nil, err
	}
	defer release()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resMu.RLock()
	last, csv = t.last, t.csv
	t.resMu.RUnlock()
	if last != nil {
		return last, csv, nil
	}
	if err := sv.ensureLive(t); err != nil {
		return nil, nil, err
	}
	t.resMu.RLock()
	last, csv = t.last, t.csv
	t.resMu.RUnlock()
	if last == nil {
		return nil, nil, fmt.Errorf("session %s has no result yet", t.id)
	}
	return last, csv, nil
}

// writeResultsError maps results() failures to status codes.
func (sv *Server) writeResultsError(w http.ResponseWriter, err error) {
	if errors.Is(err, errBusy) {
		sv.writeBusy(w)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

func (sv *Server) handleRepairs(w http.ResponseWriter, r *http.Request) {
	t := sv.tenantOr404(w, r)
	if t == nil {
		return
	}
	res, _, err := sv.readView(t, r)
	if err != nil {
		sv.writeResultsError(w, err)
		return
	}
	offset, limit, err := pageParams(r, len(res.Repairs))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	page := RepairPage{Total: len(res.Repairs), Offset: offset, Items: []RepairInfo{}}
	for i := offset; i < len(res.Repairs) && len(page.Items) < limit; i++ {
		page.Items = append(page.Items, repairInfo(res.Repairs[i]))
	}
	writeJSON(w, http.StatusOK, page)
}

func (sv *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	t := sv.tenantOr404(w, r)
	if t == nil {
		return
	}
	_, csv, err := sv.readView(t, r)
	if err != nil {
		sv.writeResultsError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	if _, err := w.Write(csv); err != nil {
		sv.logf("serve: writing dataset of %s: %v", t.id, err)
	}
}

func (sv *Server) handleReview(w http.ResponseWriter, r *http.Request) {
	t := sv.tenantOr404(w, r)
	if t == nil {
		return
	}
	res, _, err := sv.readView(t, r)
	if err != nil {
		sv.writeResultsError(w, err)
		return
	}
	threshold := 0.95
	if v := r.URL.Query().Get("threshold"); v != "" {
		var ok bool
		if threshold, ok = parseFinite(v); !ok {
			writeError(w, http.StatusBadRequest, "bad threshold %q", v)
			return
		}
	}
	low := res.LowConfidenceRepairs(threshold)
	offset, limit, err := pageParams(r, len(low))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	page := RepairPage{Total: len(low), Offset: offset, Threshold: threshold, Items: []RepairInfo{}}
	for i := offset; i < len(low) && len(page.Items) < limit; i++ {
		page.Items = append(page.Items, repairInfo(low[i]))
	}
	writeJSON(w, http.StatusOK, page)
}

// parseDeltaOps reads the op batch from a DeltaRequest JSON object or,
// with Content-Type application/x-ndjson, a stream of DeltaOp lines.
// The idempotency key comes from the request's op_id field or the
// Idempotency-Key header (the NDJSON shape's only option).
func parseDeltaOps(r *http.Request) (ops []DeltaOp, opID string, err error) {
	opID = r.Header.Get("Idempotency-Key")
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/x-ndjson") {
		dec := json.NewDecoder(r.Body)
		for {
			var op DeltaOp
			if err := dec.Decode(&op); err == io.EOF {
				return ops, opID, nil
			} else if err != nil {
				return nil, "", fmt.Errorf("decoding NDJSON op %d: %w", len(ops)+1, err)
			}
			ops = append(ops, op)
		}
	}
	var req DeltaRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, "", fmt.Errorf("decoding JSON body: %w", err)
	}
	if req.OpID != "" {
		opID = req.OpID
	}
	return req.Ops, opID, nil
}

// validateDeltaOps checks the whole batch against a simulated tuple
// count before anything is applied, so a bad op rejects the batch
// atomically instead of leaving a prefix staged.
func validateDeltaOps(ops []DeltaOp, tuples, attrs int) error {
	n := tuples
	for i, op := range ops {
		switch op.Op {
		case "upsert":
			if len(op.Values) != attrs {
				return fmt.Errorf("op %d: upsert has %d values, want %d", i, len(op.Values), attrs)
			}
			if op.Row == -1 || op.Row == n {
				n++
			} else if op.Row < 0 || op.Row > n {
				return fmt.Errorf("op %d: upsert row %d out of range [0, %d]", i, op.Row, n)
			}
		case "delete":
			if op.Row < 0 || op.Row >= n {
				return fmt.Errorf("op %d: delete row %d out of range [0, %d)", i, op.Row, n)
			}
			n--
		default:
			return fmt.Errorf("op %d: unknown op %q (want upsert or delete)", i, op.Op)
		}
	}
	return nil
}

func (sv *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	sv.mutate(w, r, store.OpDeltas, func() (walOp, error) {
		ops, opID, err := parseDeltaOps(r)
		if err == nil && len(ops) == 0 {
			err = errors.New("empty delta batch")
		}
		return &walDeltas{OpID: opID, Ops: ops}, err
	})
}

func (sv *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	sv.mutate(w, r, store.OpFeedback, func() (walOp, error) {
		var req FeedbackRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return nil, fmt.Errorf("decoding JSON body: %w", err)
		}
		if len(req.Items) == 0 {
			return nil, errors.New("empty feedback batch")
		}
		if req.OpID == "" {
			req.OpID = r.Header.Get("Idempotency-Key")
		}
		return &walFeedback{OpID: req.OpID, Items: req.Items}, nil
	})
}

// mutate is the one mutating-request path; the two endpoints differ
// only in how decode reads the body into a replayable op.
func (sv *Server) mutate(w http.ResponseWriter, r *http.Request, op store.Op, decode func() (walOp, error)) {
	if sv.redirectWrite(w, r, r.PathValue("id")) {
		return
	}
	t := sv.tenantOr404(w, r)
	if t == nil {
		return
	}
	p, err := decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Slot before tenant lock (the global order): every waiter counts
	// against the bounded queue, so a hot session sheds load with 429
	// instead of stacking goroutines on its mutex.
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
	if t.isApplied(p.id()) {
		// A retry of an op that is already applied and durable — a
		// client re-sending after an ambiguous failure. Acknowledge
		// without re-applying: a second Delete would remove a second
		// row, a second confirmation would be refused, and even
		// idempotent upserts would advance the relearn clock and diverge
		// from the logged history. (t.mu excludes every writer of t.sum,
		// so it is read without resMu here and below.)
		writeJSON(w, http.StatusOK, p.ack(t.sum, nil))
		return
	}
	tRun := time.Now()
	res, err := sv.applyOp(t, p)
	if err != nil {
		// Nothing reached the WAL: only validated, applied ops are
		// logged, so recovery replay cannot fail validation.
		writeError(w, opStatus(err), "%v", err)
		return
	}
	sv.tel.observeReclean(t.id, time.Since(tRun), res.Stats.ShardsReused)
	if err := t.setResult(res); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// The ack waits for the group commit.
	if err := t.log.Append(op, p); err != nil {
		sv.walFail(t, op, err)
		writeError(w, http.StatusInternalServerError, "logging %s batch: %v", op, err)
		return
	}
	sv.maybeCheckpoint(t)
	t.touch(time.Now())
	writeJSON(w, http.StatusOK, p.ack(t.sum, res))
}
