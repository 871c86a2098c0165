package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"holoclean"
	"holoclean/internal/compile"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/errordetect"
	"holoclean/internal/factor"
	"holoclean/internal/gibbs"
	"holoclean/internal/learn"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
	"holoclean/internal/store"
	"holoclean/internal/telemetry"
	"holoclean/serve"
)

// The traced run drives each layer's public functions from outside, on
// the workload's own inputs, with a span around every call. It has five
// parts, the same on every workload so every per-layer metric exists
// everywhere:
//
//	layers   the full pipeline one layer call at a time, monolithic and
//	         single-threaded, so the layer times add up to a Clean
//	session  a library Session replaying tenant 0's delta stream, next to
//	         the standalone delta-layer calls on the same before/after rows
//	store    an own store.Open with append/fsync observers
//	serve    an in-process serve.Server behind a real HTTP listener, one
//	         tenant, once with telemetry off and once on
//	op       the workload's own op at its own parallelism, for the stage
//	         split the program reports about itself
//
// Every figure is a median over the repetitions that fit the time budget.

// sampleSet gathers the repetitions of each metric.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

// chromaticMinVars mirrors the pipeline's own threshold for switching a
// correlated shard to the chromatic sampler.
const chromaticMinVars = 512

// compileOptions maps cleaner options onto compiler options the way
// Cleaner does.
func compileOptions(o holoclean.Options) compile.Options {
	return compile.Options{
		Tau: o.Tau, MaxCandidates: o.MaxCandidates, FullDomain: o.FullDomain, Variant: o.Variant,
		MinimalityWeight: o.MinimalityWeight, DCWeight: o.DCWeight, MaxEvidence: o.EvidenceSample, Seed: o.Seed,
		Dictionaries: o.Dictionaries, MatchDeps: o.MatchDependencies,
		DictionaryPrior: o.DictionaryPrior, RelaxedDCPrior: o.RelaxedDCPrior,
		DisableCooccurFeatures: o.DisableCooccurFeatures, DisableSourceFeatures: o.DisableSourceFeatures,
		MaxScanCounterparts: o.MaxScanCounterparts,
	}
}

// until runs fn at least min times and then until the budget is spent.
func until(budget time.Duration, min int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// runTraced is the --trace 1 run of one workload.
func runTraced(ctx context.Context, w workload, seed int64, seconds float64, plan runPlan) (*runResult, error) {
	in, err := makeInputs(w, seed, 0)
	if err != nil {
		return nil, err
	}
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	rec := newRecorder(w.name)
	res := newRunResult()
	sm := make(sampleSet)

	seq := w.options()
	seq.Workers = 1 // so the stage times of a run add up to its wall clock

	if err := driveLayers(rec, sm, in, seq, share(0.25)); err != nil {
		return nil, fmt.Errorf("layer drive: %w", err)
	}
	deltaBody, snapshot, err := driveSession(rec, sm, w, in, seed, seq, share(0.2))
	if err != nil {
		return nil, fmt.Errorf("session drive: %w", err)
	}
	if err := driveStore(rec, sm, filepath.Join(plan.tmp, "trace-store"), deltaBody, snapshot); err != nil {
		return nil, fmt.Errorf("store drive: %w", err)
	}
	var off, on *serveDrive
	for _, telemetryOn := range []bool{false, true} {
		d, err := driveServe(ctx, rec, w, in, seed, plan, telemetryOn, share(0.2), res)
		if err != nil {
			return nil, fmt.Errorf("serve drive: %w", err)
		}
		if telemetryOn {
			on = d
		} else {
			off = d
		}
	}
	off.report(sm)
	sm.add("telemetry.overhead_ratio", median(on.s.deltaMS)/median(off.s.deltaMS))
	if w.serve {
		for _, st := range off.s.stats {
			addOpStats(sm, st)
		}
	} else if err := driveOp(sm, w, in, share(0.1)); err != nil {
		return nil, fmt.Errorf("op drive: %w", err)
	}

	for name, xs := range sm {
		if !strings.HasPrefix(name, "bench.") { // working values, not metrics
			res.set(name, median(xs))
		}
	}
	res.set("holoclean.layer_coverage", median(sm["bench.layer_sum_ms"])/median(sm["holoclean.clean_ms"]))
	path, err := rec.flush(plan.outDir)
	if err != nil {
		return nil, err
	}
	res.infof("%s: %d spans written to %s", w.name, len(rec.spans), path)
	res.infof("%s: layer calls sum to %.1f ms against a Workers=1 Clean of %.1f ms; delta layers + reported ground/infer cover %.0f%% of a %.1f ms Reclean",
		w.name, median(sm["bench.layer_sum_ms"]), median(sm["holoclean.clean_ms"]),
		100*median(sm["bench.reclean_covered"]), median(sm["holoclean.reclean_ms"]))
	res.infof("%s: chromatic sweeps %s ms at IntraWorkers=1, %s ms at IntraWorkers=%d",
		w.name, joinF(sm["bench.chromatic_1_ms"], 1), joinF(sm["bench.chromatic_n_ms"], 1), runtime.GOMAXPROCS(0))
	res.infof("%s: telemetry on/off delta p50 %.1f / %.1f ms (n=%d/%d)",
		w.name, median(on.s.deltaMS), median(off.s.deltaMS), len(on.s.deltaMS), len(off.s.deltaMS))
	return res, nil
}

// driveLayers runs the pipeline one public layer call at a time.
func driveLayers(rec *recorder, sm sampleSet, in *inputs, o holoclean.Options, budget time.Duration) error {
	var lastGraph *ddlog.Grounded
	err := until(budget*2/3, 2, func(int) error {
		rec.nextOp()
		root := rec.begin("bench.layer_pass")
		var sum time.Duration
		call := func(name string, fn func()) time.Duration {
			d := rec.time(name, fn)
			sum += d
			return d
		}
		var err error
		var ds *dataset.Dataset
		sm.add("dataset.read_csv_ms", ms(call("dataset.read_csv", func() {
			ds, err = holoclean.ReadCSV(strings.NewReader(in.csv), "")
		})))
		if err != nil {
			return err
		}
		var constraints []*holoclean.Constraint
		call("dc.parse", func() { constraints, err = holoclean.ParseConstraints(strings.NewReader(in.constraints)) })
		if err != nil {
			return err
		}

		viol := &errordetect.Violations{Constraints: constraints}
		var det *errordetect.Result
		sm.add("violation.detect_ms", ms(call("violation.detect", func() { det, err = errordetect.Run(ds, viol) })))
		if err != nil {
			return err
		}
		h := viol.LastHypergraph
		if h == nil {
			return fmt.Errorf("the workload raised no violations")
		}
		sm.add("violation.violations", float64(len(h.Violations)))
		sm.add("errordetect.noisy_cells", float64(det.NumNoisy()))

		var st, masked *stats.Stats
		sm.add("stats.collect_ms", ms(call("stats.collect", func() { st = stats.Collect(ds) })))
		sm.add("stats.collect_filtered_ms", ms(call("stats.collect_filtered", func() {
			masked = stats.CollectFiltered(ds, func(t, a int) bool { return det.IsNoisy(dataset.Cell{Tuple: t, Attr: a}) })
		})))

		var dom *pruning.Domains
		sm.add("pruning.compute_ms", ms(call("pruning.compute", func() {
			dom = pruning.Compute(ds, st, det.Noisy, pruning.Config{Tau: o.Tau, MaxCandidates: o.MaxCandidates, FullDomain: o.FullDomain})
		})))
		sm.add("pruning.candidates_per_cell", float64(dom.TotalCandidates())/float64(len(dom.Cells)))

		interner := factor.NewKeyInterner()
		copts := compileOptions(o)
		copts.Detection, copts.Hypergraph, copts.Stats, copts.MaskedStats, copts.Interner = det, h, st, masked, interner
		var prep *compile.Prepared
		sm.add("compile.prepare_self_ms", ms(call("compile.prepare", func() { prep, err = compile.Prepare(ds, constraints, copts) })))
		if err != nil {
			return err
		}

		var comps [][]int
		sm.add("partition.components_ms", ms(call("partition.components", func() { comps = partition.Components(h) })))
		sm.add("partition.components", float64(len(comps)))
		sm.add("partition.largest_frac", partition.LargestFrac(comps))

		// The index is lazy per attribute; grounding touches the attributes
		// the constraints join on, so those are the ones built here.
		var shared *ddlog.SharedIndex
		sm.add("ddlog.shared_index_ms", ms(call("ddlog.shared_index", func() {
			shared = ddlog.NewSharedIndex(prep.DS, prep.Domains)
			for _, b := range prep.Bounds {
				for _, p := range b.Preds {
					shared.Init(p.LeftAttr)
					shared.Candidates(p.LeftAttr)
					if !p.RightIsConst {
						shared.Init(p.RightAttr)
						shared.Candidates(p.RightAttr)
					}
				}
			}
		})))

		db := *prep.DB
		db.Shared, db.Interner = shared, interner
		var g *ddlog.Grounded
		ground := call("ddlog.ground", func() {
			g, err = ddlog.Ground(&db, prep.Program, ddlog.Config{MaxScanCounterparts: o.MaxScanCounterparts})
		})
		if err != nil {
			return err
		}
		sm.add("ddlog.ground_ms", ms(ground))
		sm.add("ddlog.factors", float64(g.Graph.NumFactors()))
		sm.add("ddlog.variables", float64(g.Stats.Variables))
		sm.add("ddlog.factors_per_s", float64(g.Graph.NumFactors())/ground.Seconds())

		sm.add("learn.learn_ms", ms(call("learn.learn", func() {
			learn.Learn(g.Graph, learn.Config{Epochs: o.LearningEpochs, LearningRate: o.LearningRate, L2: o.L2, Seed: o.Seed})
		})))
		sm.add("learn.weights", float64(g.Graph.Weights.Len()))

		var colors [][]int32
		sm.add("partition.color_ms", ms(call("partition.color", func() { colors = partition.ColorGraph(g.Graph) })))
		sm.add("partition.colors", float64(len(colors)))

		cfg := gibbs.Config{BurnIn: o.GibbsBurnIn, Samples: o.GibbsSamples, Seed: o.Seed, Parallel: o.ParallelInference}
		if g.Graph.HasNaryOnQuery() && g.Stats.QueryVars >= chromaticMinVars {
			cfg.Colors, cfg.IntraWorkers = colors, 1
		}
		run := call("gibbs.run", func() { gibbs.Run(g.Graph, cfg) })
		sm.add("gibbs.run_ms", ms(run))
		sm.add("gibbs.var_updates_per_s", float64(g.Stats.QueryVars*(cfg.BurnIn+cfg.Samples))/run.Seconds())

		root.end()
		sm.add("bench.layer_sum_ms", ms(sum))
		lastGraph = g
		return nil
	})
	if err != nil {
		return err
	}

	// The chromatic schedule on the whole grounded graph, one goroutine
	// against all of them; alternated so drift hits both sides alike.
	colors := partition.ColorGraph(lastGraph.Graph)
	for i := 0; i < 3; i++ {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			rec.nextOp()
			cfg := gibbs.Config{BurnIn: o.GibbsBurnIn, Samples: o.GibbsSamples, Seed: o.Seed, Colors: colors, IntraWorkers: workers}
			d := rec.time(fmt.Sprintf("gibbs.chromatic_%d", workers), func() { gibbs.Run(lastGraph.Graph, cfg) })
			if workers == 1 {
				sm.add("bench.chromatic_1_ms", ms(d))
			} else {
				sm.add("bench.chromatic_n_ms", ms(d))
			}
		}
	}
	sm.add("gibbs.chromatic_speedup", median(sm["bench.chromatic_1_ms"])/median(sm["bench.chromatic_n_ms"]))

	// The same work as one Cleaner.Clean at Workers=1: what the layer
	// calls above should add up to, and how much of it no stage claims.
	ds, constraints, err := in.parse()
	if err != nil {
		return err
	}
	return until(budget/3, 3, func(int) error {
		rec.nextOp()
		sp := rec.begin("holoclean.clean")
		r, err := holoclean.New(o).Clean(ds, constraints)
		wall := sp.end()
		if err != nil {
			return err
		}
		sp.report(stages(r.Stats)...)
		sm.add("holoclean.clean_ms", ms(wall))
		sm.add("holoclean.clean_self_ms", ms(wall-stageSum(r.Stats)))
		return nil
	})
}

// stages lays a run's self-reported stage times out as child spans.
func stages(st holoclean.RunStats) []stage {
	return []stage{
		{"errordetect.reported_detect", st.DetectTime},
		{"compile.reported_compile", st.CompileTime},
		{"learn.reported_learn", st.LearnTime},
		{"gibbs.reported_infer", st.InferTime},
	}
}

func stageSum(st holoclean.RunStats) time.Duration {
	return st.DetectTime + st.CompileTime + st.LearnTime + st.InferTime
}

// applyOps applies a delta batch to a plain dataset the way a Session
// stages it, and returns what the standalone delta-layer calls need: the
// changed tuple set and the statistics views that left and entered.
func applyOps(ds *dataset.Dataset, ops []serve.DeltaOp) (changed map[int]bool, removed, added []stats.TupleView) {
	changed = make(map[int]bool)
	for _, op := range ops {
		switch op.Op {
		case "upsert":
			t := op.Row
			if t == -1 || t == ds.NumTuples() {
				t = ds.Append(op.Values)
			} else {
				removed = append(removed, stats.View(ds.Row(t), nil))
				for a, v := range op.Values {
					ds.SetString(t, a, v)
				}
			}
			added = append(added, stats.View(ds.Row(t), nil))
			changed[t] = true
		case "delete":
			removed = append(removed, stats.View(ds.Row(op.Row), nil))
			ds.DeleteSwap(op.Row)
			if op.Row < ds.NumTuples() {
				changed[op.Row] = true // the swapped-in tuple is renumbered
			}
			delete(changed, ds.NumTuples())
		}
	}
	return changed, removed, added
}

// driveSession replays tenant 0's delta stream against a library Session
// and, on a shadow copy of the relation, makes the standalone delta-layer
// calls on the same before/after rows. It returns a typical delta body
// and the session's snapshot for the store drive.
func driveSession(rec *recorder, sm sampleSet, w workload, in *inputs, seed int64, o holoclean.Options, budget time.Duration) (deltaBody, snapshot []byte, err error) {
	ds, constraints, err := in.parse()
	if err != nil {
		return nil, nil, err
	}
	sess, err := holoclean.NewSession(ds, constraints, o)
	if err != nil {
		return nil, nil, err
	}
	rec.nextOp()
	rec.time("holoclean.session_clean", func() { _, err = sess.Clean() })
	if err != nil {
		return nil, nil, err
	}

	// An own relation with an own value dictionary, not a Clone.
	shadow, _, err := in.parse()
	if err != nil {
		return nil, nil, err
	}
	viol := &errordetect.Violations{Constraints: constraints}
	if _, err := errordetect.Run(shadow, viol); err != nil {
		return nil, nil, err
	}
	prevViol := viol.LastHypergraph.Violations
	shadowStats := stats.Collect(shadow)

	sc := newScript(w, in, seed, 0)
	var bodies [][]byte
	err = until(budget, 5, func(int) error {
		req := sc.nextDelta()
		bodies = append(bodies, body(req))
		rec.nextOp()

		var err error
		rec.time("holoclean.stage_ops", func() {
			for _, op := range req.Ops {
				if op.Op == "delete" {
					err = sess.Delete(op.Row)
				} else {
					_, err = sess.Upsert(op.Row, op.Values)
				}
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		sp := rec.begin("holoclean.reclean")
		r, err := sess.Reclean()
		wall := sp.end()
		if err != nil {
			return err
		}
		sp.report(stages(r.Stats)...)
		sm.add("holoclean.reclean_ms", ms(wall))
		sm.add("holoclean.reclean_self_ms", ms(wall-stageSum(r.Stats)))

		changed, removed, added := applyOps(shadow, req.Ops)
		dv := &errordetect.Violations{Constraints: constraints, Prev: prevViol, Changed: changed}
		detect := rec.time("violation.detect_delta", func() { _, err = errordetect.Run(shadow, dv) })
		if err != nil {
			return err
		}
		prevViol = nil
		touching := 0
		if dv.LastHypergraph != nil {
			prevViol = dv.LastHypergraph.Violations
			for _, v := range prevViol {
				if changed[v.T1] || (v.T2 >= 0 && changed[v.T2]) {
					touching++
				}
			}
		}
		sm.add("violation.detect_delta_ms", ms(detect))
		sm.add("violation.delta_violations", float64(touching))

		var delta *stats.Delta
		apply := rec.time("stats.apply", func() { delta = shadowStats.Apply(removed, added) })
		touched := len(delta.Freq)
		for _, vals := range delta.Cond {
			touched += len(vals)
		}
		sm.add("stats.apply_ms", ms(apply))
		sm.add("stats.apply_touched", float64(touched))

		// What of the reclean the measured delta layers and the stages the
		// program reports for grounding and inference account for.
		covered := detect + apply + r.Stats.CompileTime + r.Stats.InferTime
		sm.add("bench.reclean_covered", float64(covered)/float64(wall))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	fbReq := sc.nextFeedback()
	fb := make([]holoclean.Feedback, len(fbReq.Items))
	for i, it := range fbReq.Items {
		fb[i] = holoclean.Feedback{Cell: holoclean.Cell{Tuple: it.Tuple, Attr: ds.AttrIndex(it.Attr)}, Value: it.Value}
	}
	rec.nextOp()
	sm.add("holoclean.feedback_ms", ms(rec.time("holoclean.feedback", func() { _, err = sess.Feedback(fb) })))
	if err != nil {
		return nil, nil, err
	}
	var snap bytes.Buffer
	rec.nextOp()
	sm.add("holoclean.snapshot_ms", ms(rec.time("holoclean.snapshot", func() { err = sess.Snapshot(&snap) })))
	if err != nil {
		return nil, nil, err
	}
	sm.add("holoclean.snapshot_kb", float64(snap.Len())/1024)
	rec.nextOp()
	sm.add("holoclean.restore_ms", ms(rec.time("holoclean.restore", func() {
		_, _, err = holoclean.RestoreSession(bytes.NewReader(snap.Bytes()), o)
	})))
	if err != nil {
		return nil, nil, err
	}
	return bodies[len(bodies)/2], bytes.TrimSpace(snap.Bytes()), nil
}

// observations collects what the store reports to its metric hooks.
type observations struct {
	mu sync.Mutex
	xs []float64
}

func (o *observations) Observe(v float64) {
	o.mu.Lock()
	o.xs = append(o.xs, v)
	o.mu.Unlock()
}

// driveStore appends the workload's delta body to an own log, then
// recovers and compacts it: a checkpoint followed by an eight-op tail,
// what a restart typically finds.
func driveStore(rec *recorder, sm sampleSet, dir string, deltaBody, checkpoint []byte) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	appends, fsyncs := new(observations), new(observations)
	st.SetMetrics(store.Metrics{AppendSeconds: appends, FsyncSeconds: fsyncs, CommitBatchSize: new(observations)})
	l, err := st.Log("bench")
	if err != nil {
		return err
	}
	appendDelta := func() error {
		var err error
		rec.nextOp()
		rec.time("store.append", func() { err = l.Append(store.OpDeltas, json.RawMessage(deltaBody)) })
		return err
	}
	for i := 0; i < 32; i++ {
		if err := appendDelta(); err != nil {
			return err
		}
	}
	envelope, err := json.Marshal(map[string]json.RawMessage{"envelope": checkpoint})
	if err != nil {
		return err
	}
	if err := l.Append(store.OpCheckpoint, json.RawMessage(envelope)); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if err := appendDelta(); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	for _, s := range appends.xs {
		sm.add("store.append_ms", s*1000)
	}
	for _, s := range fsyncs.xs {
		sm.add("store.fsync_ms", s*1000)
	}

	if st, err = store.Open(dir); err != nil {
		return err
	}
	defer st.Close()
	if l, err = st.Log("bench"); err != nil {
		return err
	}
	rec.nextOp()
	var rcv *store.Recovery
	sm.add("store.recover_ms", ms(rec.time("store.recover", func() { rcv, err = l.Recover() })))
	if err != nil {
		return err
	}
	if rcv.Checkpoint == nil || len(rcv.Tail) != 8 {
		return fmt.Errorf("recovered %d tail ops after the checkpoint, want 8", len(rcv.Tail))
	}
	rec.nextOp()
	sm.add("store.compact_ms", ms(rec.time("store.compact", func() { _, err = l.Compact() })))
	return err
}

// serveDrive is what one pass over the in-process server measured.
type serveDrive struct {
	s        samples
	createMS float64
	busy     int
	// From the session's log file: mean delta record and last checkpoint.
	walBytesPerDelta, checkpointKB float64
}

// driveServe runs one tenant's stream against a serve.Server built with
// holocleand's defaults and the workload's cleaning options.
func driveServe(ctx context.Context, rec *recorder, w workload, in *inputs, seed int64, plan runPlan, telemetryOn bool, budget time.Duration, res *runResult) (*serveDrive, error) {
	dir, err := os.MkdirTemp(plan.tmp, "trace-serve-")
	if err != nil {
		return nil, err
	}
	opts := w.options()
	cfg := serve.Config{
		Options: &opts, MaxConcurrentJobs: 2, QueueDepth: 8, IdleTimeout: 15 * time.Minute,
		StoreDir: dir, CheckpointEvery: 16,
	}
	if telemetryOn {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	sv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer sv.Close()
	ts := httptest.NewServer(sv)
	defer ts.Close()

	var mu sync.Mutex
	c := newClient(w, seed, 0, in, res, &mu)
	c.base = ts.URL
	defer c.http.CloseIdleConnections()
	suffix := ""
	if telemetryOn {
		suffix = "_telemetry"
	}
	out := new(serveDrive)
	rec.nextOp()
	out.createMS = ms(rec.time("serve.create"+suffix, func() { c.create() }))
	if c.id == "" {
		return nil, fmt.Errorf("session creation failed: %s", strings.Join(res.reasons, "; "))
	}
	err = until(budget, 6, func(i int) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rec.nextOp()
		before := out.s.acked
		sp := rec.begin("serve.delta" + suffix)
		c.delta(&out.s)
		sp.end()
		if out.s.acked == before {
			return fmt.Errorf("delta batch failed: %s", strings.Join(res.reasons, "; "))
		}
		if st := out.s.stats[len(out.s.stats)-1]; st != nil {
			sp.report(stage{"holoclean.reported_reclean", time.Duration(st.TotalMS * float64(time.Millisecond))})
		}
		for _, path := range []string{"/review?threshold=0.7", "/repairs?limit=50"} {
			rec.time("serve.read"+suffix, func() {
				if _, d, ok := c.do("GET", "/sessions/"+c.id+path, nil); ok {
					out.s.readMS = append(out.s.readMS, ms(d))
				}
			})
		}
		if i == 2 {
			rec.time("serve.feedback"+suffix, func() {
				if _, d, ok := c.do("POST", "/sessions/"+c.id+"/feedback", body(c.sc.nextFeedback())); ok {
					out.s.feedbackMS = append(out.s.feedbackMS, ms(d))
				}
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.busy = c.busy

	if telemetryOn {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			return nil, err
		}
		scrape, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("scraping /metrics: status %d, %v", resp.StatusCode, err)
		}
		if err := os.MkdirAll(plan.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(plan.outDir, "metrics_"+w.name+".txt"), scrape, 0o644); err != nil {
			return nil, err
		}
	}

	f, err := os.Open(filepath.Join(dir, c.id+".wal"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var deltaBytes, deltas int
	for fs := store.NewFrameScanner(f); ; {
		fr, err := fs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch fr.Op {
		case store.OpDeltas:
			deltaBytes += len(fr.Raw)
			deltas++
		case store.OpCheckpoint:
			out.checkpointKB = float64(len(fr.Raw)) / 1024
		}
	}
	if deltas == 0 {
		return nil, fmt.Errorf("no delta record in %s", f.Name())
	}
	out.walBytesPerDelta = float64(deltaBytes) / float64(deltas)
	return out, nil
}

// report turns the telemetry-off pass into the serve and store metrics.
func (d *serveDrive) report(sm sampleSet) {
	s := &d.s
	for i, lat := range s.deltaMS {
		if st := s.stats[i]; st != nil {
			sm.add("serve.overhead_ms", lat-st.TotalMS)
		}
	}
	sm.add("serve.delta_p50_ms", median(s.deltaMS))
	sm.add("serve.delta_p99_ms", percentile(s.deltaMS, 99))
	sm.add("serve.read_p50_ms", median(s.readMS))
	sm.add("serve.read_p95_ms", percentile(s.readMS, 95))
	sm.add("serve.feedback_p50_ms", median(s.feedbackMS))
	sm.add("serve.create_ms", d.createMS)
	sm.add("serve.http_429", float64(d.busy))
	sm.add("serve.req_kb_per_delta", float64(s.reqBytes)/float64(s.acked)/1024)
	sm.add("serve.resp_kb_per_delta", float64(s.respBytes)/float64(s.acked)/1024)
	sm.add("store.wal_bytes_per_delta", d.walBytesPerDelta)
	sm.add("store.checkpoint_kb", d.checkpointKB)
}

// addOpStats records the stage split one op of the workload reported.
func addOpStats(sm sampleSet, st *serve.RunStatsInfo) {
	if st == nil {
		return
	}
	sm.add("holoclean.detect_ms", st.DetectMS)
	sm.add("holoclean.compile_ms", st.CompileMS)
	sm.add("holoclean.learn_ms", st.LearnMS)
	sm.add("holoclean.infer_ms", st.InferMS)
	sm.add("holoclean.shards", float64(st.Shards))
	sm.add("holoclean.shards_reused", float64(st.ShardsReused))
	if total := st.Shards + st.ShardsReused; total > 0 {
		sm.add("holoclean.reuse_ratio", float64(st.ShardsReused)/float64(total))
	}
	sm.add("holoclean.allocs_per_op", float64(st.AllocObjects))
	sm.add("holoclean.alloc_mb_per_op", float64(st.AllocBytes)/(1<<20))
}

// driveOp runs a batch workload's own op, Clean at its own parallelism,
// for the stage split of RunStats.
func driveOp(sm sampleSet, w workload, in *inputs, budget time.Duration) error {
	ds, constraints, err := in.parse()
	if err != nil {
		return err
	}
	cl := holoclean.New(w.options())
	return until(budget, 3, func(int) error {
		r, err := cl.Clean(ds, constraints)
		if err != nil {
			return err
		}
		st := r.Stats
		addOpStats(sm, &serve.RunStatsInfo{
			DetectMS: ms(st.DetectTime), CompileMS: ms(st.CompileTime), LearnMS: ms(st.LearnTime), InferMS: ms(st.InferTime),
			Shards: st.Shards, ShardsReused: st.ShardsReused, AllocObjects: st.AllocObjects, AllocBytes: st.AllocBytes,
		})
		return nil
	})
}
