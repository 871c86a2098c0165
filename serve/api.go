package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"holoclean"
)

// SessionInfo is the wire representation of one managed session.
type SessionInfo struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Tuples and Attrs describe the session's current (dirty) relation.
	Tuples int      `json:"tuples"`
	Attrs  []string `json:"attrs,omitempty"`
	// Repairs is the size of the current repair list.
	Repairs int `json:"repairs"`
	// Recleans counts pipeline rounds after the initial clean (delta
	// recleans and feedback rounds both advance the RelearnEvery clock).
	Recleans int `json:"recleans"`
	// Confirmed is the number of accumulated feedback confirmations.
	Confirmed int `json:"confirmed"`
	// Evicted reports whether the session currently lives only as a
	// checkpoint; the next operation that needs it restores it transparently.
	Evicted bool `json:"evicted"`
	// Stats describes the session's most recent pipeline run. Absent on
	// evicted sessions (the result cache is released with the session).
	Stats *RunStatsInfo `json:"stats,omitempty"`
	// Store reports the session's write-ahead-log gauges.
	Store *SessionStoreInfo `json:"store,omitempty"`
	// Replication reports the session's role on this node; absent
	// outside cluster mode.
	Replication *ReplicationInfo `json:"replication,omitempty"`
}

// ReplicationInfo is one session's replication role on the answering
// node (cluster mode only).
type ReplicationInfo struct {
	// Role is "leader" (this node serves writes) or "replica" (this
	// node mirrors the leader's WAL and serves reads).
	Role string `json:"role"`
	// Leader is the advertised URL of the session's current leader.
	Leader string `json:"leader,omitempty"`
	// AppliedSeq is the last record durable in this node's copy of the
	// session's log.
	AppliedSeq uint64 `json:"applied_seq"`
}

// SessionStoreInfo is the operator view of one session's operation log
// — the compaction-debt gauges: how big the log is, how many operations
// recovery would replay, and when the last checkpoint was cut.
type SessionStoreInfo struct {
	WALBytes           int64      `json:"wal_bytes"`
	OpsSinceCheckpoint int        `json:"ops_since_checkpoint"`
	LastCheckpointAt   *time.Time `json:"last_checkpoint_at,omitempty"`
}

// RunStatsInfo is holoclean.RunStats with wall-clock durations in
// milliseconds, the shape clients chart latency from.
type RunStatsInfo struct {
	NoisyCells int `json:"noisy_cells"`
	// InertCells counts the noisy cells pruning left with one candidate:
	// flagged, but not repairable at this τ.
	InertCells int `json:"inert_cells"`
	Variables  int `json:"variables"`
	// QueryVars and EvidenceVars split Variables into the unknowns
	// inference solves for and the clean cells pinned as evidence.
	QueryVars    int `json:"query_vars"`
	EvidenceVars int `json:"evidence_vars"`
	// Factors counts the factors materialized: shard graphs leave out
	// unary and soft factors whose weight is 0.
	Factors int `json:"factors"`
	// PaperFactors counts factors before the repeated-feature folding,
	// the figure comparable to the paper's model sizes; it includes the
	// groundings Factors leaves out.
	PaperFactors int64 `json:"paper_factors"`
	// Weights is the number of distinct tying keys the pass materialized
	// or broadcast.
	Weights      int `json:"weights"`
	Shards       int `json:"shards"`
	ExactShards  int `json:"exact_shards"`
	ShardsReused int `json:"shards_reused"`
	// SplitShards counts sub-shards cut from oversized conflict
	// components (Options.MaxComponentCells).
	SplitShards int `json:"split_shards,omitempty"`
	// ComponentSizeHist is the log2 histogram of conflict-component
	// sizes in tuples (bucket k: 2^k <= n < 2^(k+1)); absent when the
	// model grounds no correlation factors.
	ComponentSizeHist []int `json:"component_size_hist,omitempty"`
	// LargestComponentFrac is the fraction of conflicted tuples in the
	// largest component — the skew gauge operators watch to decide
	// whether a tenant needs MaxComponentCells.
	LargestComponentFrac float64 `json:"largest_component_frac,omitempty"`
	// AllocBytes/AllocObjects are the run's cumulative heap allocation
	// deltas and PeakHeapBytes the sampled live-heap watermark — see
	// holoclean.RunStats for the process-wide caveats.
	AllocBytes    uint64  `json:"alloc_bytes"`
	AllocObjects  uint64  `json:"alloc_objects"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	DetectMS      float64 `json:"detect_ms"`
	CompileMS     float64 `json:"compile_ms"`
	LearnMS       float64 `json:"learn_ms"`
	InferMS       float64 `json:"infer_ms"`
	TotalMS       float64 `json:"total_ms"`
}

func runStatsInfo(s holoclean.RunStats) *RunStatsInfo {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &RunStatsInfo{
		NoisyCells:           s.NoisyCells,
		InertCells:           s.InertCells,
		Variables:            s.Variables,
		QueryVars:            s.QueryVars,
		EvidenceVars:         s.EvidenceVars,
		Factors:              s.Factors,
		PaperFactors:         s.PaperFactors,
		Weights:              s.Weights,
		Shards:               s.Shards,
		ExactShards:          s.ExactShards,
		ShardsReused:         s.ShardsReused,
		SplitShards:          s.SplitShards,
		ComponentSizeHist:    s.ComponentSizeHist,
		LargestComponentFrac: s.LargestComponentFrac,
		AllocBytes:           s.AllocBytes,
		AllocObjects:         s.AllocObjects,
		PeakHeapBytes:        s.PeakHeapBytes,
		DetectMS:             ms(s.DetectTime),
		CompileMS:            ms(s.CompileTime),
		LearnMS:              ms(s.LearnTime),
		InferMS:              ms(s.InferTime),
		TotalMS:              ms(s.TotalTime),
	}
}

// CreateRequest is the JSON body of POST /sessions. The same fields can
// be sent as a multipart form ("data" and "dcs" as file or value parts,
// the rest as values), which is the curl-friendly shape.
type CreateRequest struct {
	Name string `json:"name,omitempty"`
	// CSV is the dirty relation, header row first.
	CSV string `json:"csv"`
	// Constraints holds one denial constraint per line (optional
	// "name:" prefixes, '#' comments).
	Constraints string `json:"constraints"`
	// SourceColumn, when set, names a provenance column of the CSV.
	SourceColumn string `json:"source_column,omitempty"`
	// Seed, Tau, RelearnEvery override the server's base options for
	// this session; a zero Seed or RelearnEvery and an absent Tau keep the
	// defaults. An explicit "tau": 0 is taken literally: no co-occurrence
	// pruning.
	Seed         int64    `json:"seed,omitempty"`
	Tau          *float64 `json:"tau,omitempty"`
	RelearnEvery int      `json:"relearn_every,omitempty"`
}

// DeltaOp is one tuple change of a delta batch.
type DeltaOp struct {
	// Op is "upsert" or "delete".
	Op string `json:"op"`
	// Row is the tuple index; -1 (or the current tuple count) appends.
	Row int `json:"row"`
	// Values holds one value per schema attribute (upsert only).
	Values []string `json:"values,omitempty"`
}

// UnmarshalJSON requires the "row" field to be present: a zero-value
// default would silently aim a mistyped op — including a delete — at
// tuple 0.
func (op *DeltaOp) UnmarshalJSON(b []byte) error {
	var raw struct {
		Op     string   `json:"op"`
		Row    *int     `json:"row"`
		Values []string `json:"values"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw.Row == nil {
		return fmt.Errorf(`delta op missing required "row" field`)
	}
	op.Op, op.Row, op.Values = raw.Op, *raw.Row, raw.Values
	return nil
}

// DeltaRequest is the JSON body of POST /sessions/{id}/deltas. Clients
// streaming NDJSON (Content-Type application/x-ndjson) send one DeltaOp
// object per line instead; either way the whole batch is validated up
// front, applied atomically, and coalesced into a single Reclean.
type DeltaRequest struct {
	Ops []DeltaOp `json:"ops"`
	// OpID is an optional idempotency key (also settable via the
	// Idempotency-Key header). A batch retried with the op_id of an
	// already-applied batch — a client re-sending after an ambiguous
	// failure or a daemon crash — is acknowledged without being
	// re-applied (DeltaResponse.Duplicate).
	OpID string `json:"op_id,omitempty"`
}

// DeltaResponse reports one coalesced reclean.
type DeltaResponse struct {
	Applied int           `json:"applied"`
	Tuples  int           `json:"tuples"`
	Repairs int           `json:"repairs"`
	Stats   *RunStatsInfo `json:"stats"`
	// Duplicate reports that the batch's op_id was already applied and
	// the request was acknowledged without re-applying it; Applied is 0
	// and Stats absent (no pipeline ran).
	Duplicate bool `json:"duplicate,omitempty"`
}

// RepairInfo is one proposed (or reviewable) repair on the wire.
type RepairInfo struct {
	Tuple       int     `json:"tuple"`
	Attr        string  `json:"attr"`
	Old         string  `json:"old"`
	New         string  `json:"new"`
	Probability float64 `json:"probability"`
}

func repairInfo(r holoclean.Repair) RepairInfo {
	return RepairInfo{Tuple: r.Tuple, Attr: r.Attr, Old: r.Old, New: r.New, Probability: r.Probability}
}

// RepairPage is a stable-ordered page of repairs; ordering is (Tuple,
// Attr) for /repairs and ascending probability with (Tuple, Attr)
// tie-breaks for /review, both deterministic across identical runs.
type RepairPage struct {
	Total     int          `json:"total"`
	Offset    int          `json:"offset"`
	Threshold float64      `json:"threshold,omitempty"`
	Items     []RepairInfo `json:"items"`
}

// FeedbackItem is one user confirmation; Attr is the attribute name.
type FeedbackItem struct {
	Tuple int    `json:"tuple"`
	Attr  string `json:"attr"`
	Value string `json:"value"`
}

// UnmarshalJSON requires the "tuple" field to be present — an omitted
// tuple must not silently confirm a value on row 0. (A missing attr or
// value falls through to the schema and feedback validation, which
// reject them with clear errors.)
func (it *FeedbackItem) UnmarshalJSON(b []byte) error {
	var raw struct {
		Tuple *int   `json:"tuple"`
		Attr  string `json:"attr"`
		Value string `json:"value"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	if raw.Tuple == nil {
		return fmt.Errorf(`feedback item missing required "tuple" field`)
	}
	it.Tuple, it.Attr, it.Value = *raw.Tuple, raw.Attr, raw.Value
	return nil
}

// FeedbackRequest is the JSON body of POST /sessions/{id}/feedback.
type FeedbackRequest struct {
	Items []FeedbackItem `json:"items"`
	// OpID is an optional idempotency key; see DeltaRequest.OpID.
	OpID string `json:"op_id,omitempty"`
}

// FeedbackResponse reports one applied feedback round.
type FeedbackResponse struct {
	Confirmed int           `json:"confirmed"`
	Repairs   int           `json:"repairs"`
	Stats     *RunStatsInfo `json:"stats"`
	// Duplicate mirrors DeltaResponse.Duplicate for retried batches.
	Duplicate bool `json:"duplicate,omitempty"`
}

// ErrorResponse is the JSON envelope of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is GET /healthz.
type HealthResponse struct {
	OK       bool `json:"ok"`
	Sessions int  `json:"sessions"`
	// Queued is the number of heavy jobs currently running or waiting
	// for a slot; load balancers can shed on it before hitting 429s.
	Queued int `json:"queued"`
	// Draining reports a graceful shutdown in progress: heavy jobs are
	// being refused with 503 while in-flight work completes.
	Draining bool `json:"draining,omitempty"`
	// Store aggregates the session store's gauges; Dir names the
	// ephemeral directory when no store directory was configured.
	Store *StoreHealth `json:"store,omitempty"`
	// Cluster reports this node's replication state; absent outside
	// cluster mode.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the /healthz replication section: who this node is,
// what it leads and mirrors, and how far replication lags on both
// sides of the wire.
type ClusterHealth struct {
	Enabled bool `json:"enabled"`
	// Self is this node's advertised URL; Peers the full static ring.
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
	// Leading and Mirroring count the tenants this node serves writes
	// for and stands by for, respectively.
	Leading   int `json:"leading"`
	Mirroring int `json:"mirroring"`
	// Following maps each mirrored tenant to how far this node's copy
	// trails its leader (the follower-side lag gauges).
	Following map[string]ReplicaLagInfo `json:"following,omitempty"`
	// Followers maps each led tenant to the followers seen polling its
	// tail and how far behind each was at its last poll (the
	// leader-side view).
	Followers map[string][]FollowerInfo `json:"followers,omitempty"`
}

// ReplicaLagInfo is the follower-side lag on one mirrored tenant.
type ReplicaLagInfo struct {
	Leader     string `json:"leader"`
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	// Ops and Bytes are how far the local durable copy trails the
	// leader's log, in operations and bytes (0 when caught up).
	Ops   int64 `json:"ops"`
	Bytes int64 `json:"bytes"`
}

// FollowerInfo is the leader-side view of one follower on one tenant.
type FollowerInfo struct {
	URL        string `json:"url"`
	AppliedSeq uint64 `json:"applied_seq"`
	Ops        int64  `json:"ops"`
	Bytes      int64  `json:"bytes"`
}

// StoreHealth is the server-wide durable-store summary of /healthz:
// total log size and un-checkpointed operations across all sessions —
// the global compaction/recovery debt.
type StoreHealth struct {
	Enabled            bool   `json:"enabled"`
	Dir                string `json:"dir"`
	WALBytes           int64  `json:"wal_bytes"`
	OpsSinceCheckpoint int    `json:"ops_since_checkpoint"`
}
