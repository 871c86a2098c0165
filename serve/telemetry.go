package serve

import (
	"net/http"
	"time"

	"holoclean/internal/store"
	"holoclean/internal/telemetry"
)

// serverMetrics bundles every metric family the serve tier records.
// A nil *serverMetrics is the disabled state (Config.Telemetry unset):
// all observer methods are nil-receiver no-ops, /metrics is not
// routed, and no hot path allocates.
type serverMetrics struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer

	httpSeconds *telemetry.HistogramVec // request latency per route pattern
	httpTotal   *telemetry.CounterVec   // requests per route pattern and status class

	jobsQueued   *telemetry.Gauge // queue occupancy (running + waiting), sampled at scrape
	jobsRunning  *telemetry.Gauge // jobs holding a slot, sampled at scrape
	jobsRejected *telemetry.Counter
	jobEWMA      *telemetry.Gauge

	reclean       *telemetry.Histogram    // aggregate reclean latency; feeds /healthz p50/p99
	tenantReclean *telemetry.HistogramVec // per-tenant reclean latency
	tenantReuse   *telemetry.HistogramVec // per-tenant shards reused per reclean

	walAppend *telemetry.Histogram
	walFsync  *telemetry.Histogram
	walBatch  *telemetry.Histogram
	walBytes  *telemetry.Gauge // live WAL bytes across tenants, sampled at scrape
	walOps    *telemetry.Gauge // ops past the newest checkpoint, sampled at scrape

	lagOps   *telemetry.GaugeVec // follower-side replication lag, ops behind leader
	lagBytes *telemetry.GaugeVec // follower-side replication lag, WAL bytes behind

	sessions *telemetry.Gauge
}

// newServerMetrics registers the serve-tier metric catalog on reg and
// installs the scrape hook that samples point-in-time gauges from sv.
func newServerMetrics(reg *telemetry.Registry, sv *Server) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		tr: telemetry.NewTracer(reg, "holoclean_pipeline_stage_seconds",
			"Per-stage pipeline durations (diff, detect, stats, prepare, invalidate, plan, learn, ground, infer, total; checkpoint)."),
		httpSeconds: reg.HistogramVec("holoclean_http_request_seconds",
			"HTTP request latency by route pattern.", telemetry.LatencyBuckets, "endpoint"),
		httpTotal: reg.CounterVec("holoclean_http_requests_total",
			"HTTP requests by route pattern and status class.", "endpoint", "class"),
		jobsQueued: reg.Gauge("holoclean_jobs_queued",
			"Jobs on the bounded queue, running plus waiting."),
		jobsRunning: reg.Gauge("holoclean_jobs_running",
			"Jobs currently holding a slot."),
		jobsRejected: reg.Counter("holoclean_jobs_rejected_total",
			"Jobs refused with 429 because the queue was full."),
		jobEWMA: reg.Gauge("holoclean_job_ewma_seconds",
			"EWMA job duration behind Retry-After estimates."),
		reclean: reg.Histogram("holoclean_reclean_seconds",
			"End-to-end reclean latency across all tenants (deltas and feedback).", telemetry.LatencyBuckets),
		tenantReclean: reg.HistogramVec("holoclean_tenant_reclean_seconds",
			"End-to-end reclean latency per tenant.", telemetry.LatencyBuckets, "tenant"),
		tenantReuse: reg.HistogramVec("holoclean_tenant_shards_reused",
			"Shards reused (skipped re-inference) per reclean, per tenant.", telemetry.SizeBuckets, "tenant"),
		walAppend: reg.Histogram("holoclean_wal_append_seconds",
			"WAL append latency including the group-commit fsync wait.", telemetry.LatencyBuckets),
		walFsync: reg.Histogram("holoclean_wal_fsync_seconds",
			"Individual WAL fsync durations.", telemetry.LatencyBuckets),
		walBatch: reg.Histogram("holoclean_wal_commit_batch_size",
			"Log files synced per group-commit batch.", telemetry.SizeBuckets),
		walBytes: reg.Gauge("holoclean_wal_bytes",
			"Live WAL bytes summed across tenants."),
		walOps: reg.Gauge("holoclean_wal_ops_since_checkpoint",
			"Appended ops past the newest checkpoint, summed across tenants."),
		lagOps: reg.GaugeVec("holoclean_replication_lag_ops",
			"Ops this standby trails the tenant's leader by.", "tenant"),
		lagBytes: reg.GaugeVec("holoclean_replication_lag_bytes",
			"WAL bytes this standby trails the tenant's leader by.", "tenant"),
		sessions: reg.Gauge("holoclean_sessions",
			"Resident sessions."),
	}
	reg.OnScrape(func() {
		m.jobsQueued.Set(float64(sv.queued.Load()))
		m.jobsRunning.Set(float64(len(sv.sem)))
		m.jobEWMA.Set(time.Duration(sv.jobEWMA.Load()).Seconds())
		tenants := sv.tenants()
		m.sessions.Set(float64(len(tenants)))
		var walBytes int64
		var walOps int
		for _, t := range tenants {
			st := t.log.Stats()
			walBytes += st.WALBytes
			walOps += st.OpsSinceCheckpoint
		}
		m.walBytes.Set(float64(walBytes))
		m.walOps.Set(float64(walOps))
	})
	return m
}

// tracer returns the pipeline tracer sessions record spans into (nil
// when telemetry is off — the pipeline's no-op path).
func (m *serverMetrics) tracer() *telemetry.Tracer {
	if m == nil {
		return nil
	}
	return m.tr
}

// span opens a serve-side pipeline stage span (e.g. "checkpoint").
func (m *serverMetrics) span(stage string) telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return m.tr.Start(stage)
}

// observeRequest records one dispatched HTTP request.
func (m *serverMetrics) observeRequest(endpoint string, status int, d time.Duration) {
	if m == nil {
		return
	}
	class := "2xx"
	switch {
	case status >= 500:
		class = "5xx"
	case status >= 400:
		class = "4xx"
	case status >= 300:
		class = "3xx"
	}
	m.httpSeconds.With(endpoint).Observe(d.Seconds())
	m.httpTotal.With(endpoint, class).Inc()
}

// observeReclean records one completed reclean (delta or feedback
// round) for tenant id.
func (m *serverMetrics) observeReclean(id string, d time.Duration, shardsReused int) {
	if m == nil {
		return
	}
	s := d.Seconds()
	m.reclean.Observe(s)
	m.tenantReclean.With(id).Observe(s)
	m.tenantReuse.With(id).Observe(float64(shardsReused))
}

// rejected counts one 429 backpressure response.
func (m *serverMetrics) rejected() {
	if m != nil {
		m.jobsRejected.Inc()
	}
}

// setLag updates the follower-side replication lag gauges for one
// tenant; shippers push it after every shipping round.
func (m *serverMetrics) setLag(id string, ops, bytes int64) {
	if m == nil {
		return
	}
	m.lagOps.With(id).Set(float64(ops))
	m.lagBytes.With(id).Set(float64(bytes))
}

// storeMetrics adapts the WAL histograms to the store's observer
// hooks.
func (m *serverMetrics) storeMetrics() store.Metrics {
	return store.Metrics{
		AppendSeconds:   m.walAppend,
		FsyncSeconds:    m.walFsync,
		CommitBatchSize: m.walBatch,
	}
}

// handleMetrics serves the Prometheus text exposition. Only routed
// when telemetry is enabled; a disabled server 404s the path.
func (sv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	sv.tel.reg.WritePrometheus(w)
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}
