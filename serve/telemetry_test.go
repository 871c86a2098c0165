package serve

import (
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"holoclean"
	"holoclean/internal/telemetry"
)

// TestMetricsEndpoint drives a create + delta round against a
// telemetry-enabled durable server and checks /metrics carries every
// advertised family, the reclean latency distribution among them.
func TestMetricsEndpoint(t *testing.T) {
	sv, tc := newTestServer(t, Config{
		Workers: 1, MaxConcurrentJobs: 1,
		StoreDir:  t.TempDir(),
		Telemetry: telemetry.NewRegistry(),
	})
	info := tc.create("tel", fixtureCSV("tel", 20), 1, 0)
	var dres DeltaResponse
	tc.mustJSON("POST", "/sessions/"+info.ID+"/deltas", DeltaRequest{Ops: []DeltaOp{
		{Op: "upsert", Row: 1, Values: []string{"tel-k001", "tel-freshbad"}},
	}}, &dres)

	status, raw := tc.do("GET", "/metrics", "", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	body := string(raw)
	if len(body) == 0 {
		t.Fatal("GET /metrics: empty body")
	}
	for _, want := range []string{
		"# TYPE holoclean_http_request_seconds histogram",
		`holoclean_http_request_seconds_bucket{endpoint="POST /sessions/{id}/deltas",le="+Inf"} 1`,
		`holoclean_http_requests_total{endpoint="POST /sessions",class="2xx"} 1`,
		"# TYPE holoclean_jobs_queued gauge",
		"holoclean_jobs_running 0",
		"holoclean_jobs_rejected_total 0",
		"# TYPE holoclean_job_ewma_seconds gauge",
		`holoclean_pipeline_stage_seconds_count{stage="detect"} 2`,
		`holoclean_pipeline_stage_seconds_count{stage="learn"} 1`,
		`holoclean_pipeline_stage_seconds_count{stage="infer"} 2`,
		`holoclean_pipeline_stage_seconds_count{stage="stats"} 2`,
		`holoclean_pipeline_stage_seconds_count{stage="checkpoint"} 1`,
		"holoclean_reclean_seconds_count 1",
		`holoclean_tenant_reclean_seconds_count{tenant="` + info.ID + `"} 1`,
		`holoclean_tenant_shards_reused_count{tenant="` + info.ID + `"} 1`,
		"# TYPE holoclean_wal_append_seconds histogram",
		"# TYPE holoclean_wal_fsync_seconds histogram",
		"# TYPE holoclean_wal_commit_batch_size histogram",
		"holoclean_sessions 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The WAL was written (create + checkpoint + delta + checkpoint):
	// the append histogram must have real observations.
	if strings.Contains(body, "holoclean_wal_append_seconds_count 0\n") {
		t.Error("wal append histogram recorded nothing")
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", body)
	}

	// The reclean quantiles are read off the histogram /metrics exposes.
	if !strings.Contains(body, `holoclean_reclean_seconds_bucket{le="+Inf"} 1`) {
		t.Error("/metrics reclean histogram missing its +Inf bucket")
	}
	if p50, p99 := sv.tel.reclean.Quantile(0.50), sv.tel.reclean.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("reclean quantiles not populated: p50=%v p99=%v", p50, p99)
	}
}

// TestMetricsDisabled404 checks the off-by-default path: no registry,
// no /metrics route, and /healthz still answers.
func TestMetricsDisabled404(t *testing.T) {
	_, tc := newTestServer(t, Config{Workers: 1, MaxConcurrentJobs: 1})
	tc.create("notel", fixtureCSV("notel", 8), 1, 0)
	status, _ := tc.do("GET", "/metrics", "", nil)
	if status != http.StatusNotFound {
		t.Fatalf("GET /metrics with telemetry disabled: status %d, want 404", status)
	}
	if status, _ := tc.do("GET", "/healthz", "", nil); status != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", status)
	}
}

// TestRunStatsInfoParity is the reflection audit: every RunStats field
// must surface through RunStatsInfo — durations as <name sans Time>MS,
// everything else under its own name — and distinct nonzero values
// must propagate through runStatsInfo.
func TestRunStatsInfoParity(t *testing.T) {
	statsT := reflect.TypeOf(holoclean.RunStats{})
	infoT := reflect.TypeOf(RunStatsInfo{})
	durT := reflect.TypeOf(time.Duration(0))

	infoFields := make(map[string]reflect.StructField, infoT.NumField())
	for i := 0; i < infoT.NumField(); i++ {
		infoFields[infoT.Field(i).Name] = infoT.Field(i)
	}

	// Fill every RunStats field with a distinct nonzero value.
	var stats holoclean.RunStats
	sv := reflect.ValueOf(&stats).Elem()
	for i := 0; i < statsT.NumField(); i++ {
		f := sv.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) / 2)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			f.Index(0).SetInt(int64(i + 1))
		default:
			t.Fatalf("RunStats.%s has kind %v: teach the parity test about it", statsT.Field(i).Name, f.Kind())
		}
	}
	info := runStatsInfo(stats)
	iv := reflect.ValueOf(info).Elem()

	for i := 0; i < statsT.NumField(); i++ {
		sf := statsT.Field(i)
		wantName := sf.Name
		if sf.Type == durT {
			wantName = strings.TrimSuffix(sf.Name, "Time") + "MS"
		}
		inf, ok := infoFields[wantName]
		if !ok {
			t.Errorf("RunStats.%s has no RunStatsInfo.%s counterpart — extend the JSON mapping in api.go", sf.Name, wantName)
			continue
		}
		if tag := inf.Tag.Get("json"); tag == "" {
			t.Errorf("RunStatsInfo.%s has no json tag", wantName)
		}
		if iv.FieldByName(wantName).IsZero() {
			t.Errorf("RunStats.%s set nonzero but RunStatsInfo.%s is zero: runStatsInfo drops it", sf.Name, wantName)
		}
	}
}
