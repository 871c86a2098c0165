package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"holoclean"
	"holoclean/internal/metrics"
	"holoclean/serve"
)

// Serve workloads drive a real holocleand child — flags at their
// defaults apart from the store directory, the address and -metrics=false
// — with one closed-loop client per tenant: a tenant waits for its
// repairs before it sends more, and a session serialises its own writes,
// so callers of this system form a closed loop. Two tenants is nproc on
// the sandbox this was sized on; each has one keep-alive connection.

// recoverTail is the number of un-checkpointed ops per tenant at the
// moment of the kill. holocleand checkpoints every 16 ops, so a kill at a
// random moment would replay anything from 0 to 15; pinning the tail
// makes recover_s repeatable.
const recoverTail = 4

// daemon is one running holocleand child.
type daemon struct {
	cmd  *exec.Cmd
	base string
	exec time.Time // when the process was started
}

// startDaemon starts holocleand on a free loopback port and returns once
// it answers /healthz — which, with a populated store, is after it has
// recovered every session.
func startDaemon(ctx context.Context, plan runPlan, storeDir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.CommandContext(ctx, plan.daemon, "-addr", addr, "-store-dir", storeDir, "-metrics=false")
	logf, err := os.Create(filepath.Join(storeDir, "..", filepath.Base(storeDir)+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, base: "http://" + addr, exec: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", plan.daemon, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("holocleand on %s never became healthy (see %s)", addr, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill is kill -9: no drain, no final checkpoint.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// samples is what one tenant's client measured.
type samples struct {
	deltaMS, readMS, feedbackMS []float64
	// deltaAt[i] is when the response behind deltaMS[i] was decoded.
	deltaAt []time.Time
	acked   int
	// Of the acknowledged delta batches: wire sizes and the run statistics
	// the server reported, which the traced run breaks latency down by.
	reqBytes, respBytes int
	stats               []*serve.RunStatsInfo
}

// client is one tenant's closed-loop load generator.
type client struct {
	sc   *script
	in   *inputs
	http *http.Client
	base string
	id   string
	busy int // 429 answers
	res  *runResult
	mu   *sync.Mutex // guards res across tenants
}

func newClient(w workload, seed int64, tenant int, in *inputs, res *runResult, mu *sync.Mutex) *client {
	return &client{
		sc: newScript(w, in, seed, tenant), in: in, res: res, mu: mu,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
	}
}

func (c *client) fail(format string, args ...any) {
	c.mu.Lock()
	c.res.fail(format, args...)
	c.mu.Unlock()
}

func (c *client) attempt() {
	c.mu.Lock()
	c.res.attempted++
	c.mu.Unlock()
}

// do sends one request and returns the response body and how long the
// round trip took, from the first byte written to the last byte read. A
// transport error or a non-2xx status (429 included) is a failed op.
func (c *client) do(method, path string, reqBody []byte) ([]byte, time.Duration, bool) {
	c.attempt()
	var rd io.Reader
	if reqBody != nil {
		rd = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.fail("%s %s: %v", method, path, err)
		return nil, 0, false
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if resp.StatusCode == http.StatusTooManyRequests {
		c.busy++
	}
	if err != nil || resp.StatusCode/100 != 2 {
		c.fail("%s %s: status %d, %v: %.200s", method, path, resp.StatusCode, err, b)
		return nil, d, false
	}
	return b, d, true
}

// create uploads the tenant's relation; the server cleans it before it
// answers.
func (c *client) create() bool {
	b, _, ok := c.do("POST", "/sessions", body(serve.CreateRequest{
		Name: c.sc.name, CSV: c.in.csv, Constraints: c.in.constraints,
	}))
	if !ok {
		return false
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil || info.ID == "" {
		c.fail("create: undecodable response: %v", err)
		return false
	}
	c.id = info.ID
	return true
}

// delta posts the next batch and checks the acknowledgement against the
// mirror. The latency runs until the response is decoded.
func (c *client) delta(s *samples) {
	req := c.sc.nextDelta()
	reqBody := body(req)
	start := time.Now()
	b, _, ok := c.do("POST", "/sessions/"+c.id+"/deltas", reqBody)
	if !ok {
		return
	}
	var resp serve.DeltaResponse
	err := json.Unmarshal(b, &resp)
	d := time.Since(start)
	switch {
	case err != nil:
		c.fail("delta %s: undecodable response: %v", req.OpID, err)
	case resp.Applied != len(req.Ops):
		c.fail("delta %s: applied %d of %d ops", req.OpID, resp.Applied, len(req.Ops))
	case resp.Tuples != len(c.sc.dirty):
		c.fail("delta %s: server has %d tuples, mirror %d", req.OpID, resp.Tuples, len(c.sc.dirty))
	default:
		s.acked++
		s.deltaMS = append(s.deltaMS, ms(d))
		s.deltaAt = append(s.deltaAt, start.Add(d))
		s.reqBytes += len(reqBody)
		s.respBytes += len(b)
		s.stats = append(s.stats, resp.Stats)
	}
}

// iterate is one turn of the tenant's loop: a delta batch, the review
// queue, one page of repairs and, every feedbackEvery-th turn, a feedback
// round.
func (c *client) iterate(s *samples) {
	c.delta(s)
	for _, path := range []string{"/review?threshold=0.7", "/repairs?limit=50"} {
		if _, d, ok := c.do("GET", "/sessions/"+c.id+path, nil); ok {
			s.readMS = append(s.readMS, ms(d))
		}
	}
	if c.sc.feedbackDue() {
		if _, d, ok := c.do("POST", "/sessions/"+c.id+"/feedback", body(c.sc.nextFeedback())); ok {
			s.feedbackMS = append(s.feedbackMS, ms(d))
		}
	}
}

// repairs fetches the tenant's full repair list as the server renders it.
func (c *client) repairs() ([]byte, bool) {
	b, _, ok := c.do("GET", "/sessions/"+c.id+"/repairs", nil)
	return b, ok
}

// padToTail posts untimed delta batches until exactly recoverTail ops
// sit after the tenant's latest checkpoint.
func (c *client) padToTail() {
	for i := 0; i < 64; i++ {
		b, _, ok := c.do("GET", "/sessions/"+c.id, nil)
		if !ok {
			return
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(b, &info); err != nil || info.Store == nil {
			c.fail("session status of %s carries no store gauges", c.id)
			return
		}
		if info.Store.OpsSinceCheckpoint == recoverTail {
			return
		}
		c.delta(new(samples))
	}
	c.fail("tail of %s never reached %d ops", c.id, recoverTail)
}

// evaluate scores the server's repaired relation against the mirror.
func (c *client) evaluate() (metrics.Eval, bool) {
	b, _, ok := c.do("GET", "/sessions/"+c.id+"/dataset", nil)
	if !ok {
		return metrics.Eval{}, false
	}
	repaired, err := holoclean.ReadCSV(bytes.NewReader(b), "")
	if err != nil {
		c.fail("dataset of %s: %v", c.id, err)
		return metrics.Eval{}, false
	}
	eval, err := metrics.Evaluate(datasetOf(c.sc.attrs, c.sc.dirty), repaired, datasetOf(c.sc.attrs, c.sc.truth))
	if err != nil {
		c.fail("dataset of %s does not line up with the mirror: %v", c.id, err)
		return metrics.Eval{}, false
	}
	return eval, true
}

// each runs fn for every client at once and waits for all of them.
func each(clients []*client, fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

// setupServe starts a daemon on a fresh store, creates every tenant's
// session and acks the warm-up iterations. The time from exec to the last
// ack is the workload's set-up time.
func setupServe(ctx context.Context, w workload, seed int64, plan runPlan, ins []*inputs, res *runResult, mu *sync.Mutex) (*daemon, []*client, string, time.Duration, error) {
	storeDir, err := os.MkdirTemp(plan.tmp, w.name+"-store-")
	if err != nil {
		return nil, nil, "", 0, err
	}
	d, err := startDaemon(ctx, plan, storeDir)
	if err != nil {
		return nil, nil, "", 0, err
	}
	clients := make([]*client, w.tenants)
	for k := range clients {
		clients[k] = newClient(w, seed, k, ins[k], res, mu)
		clients[k].base = d.base
	}
	each(clients, func(_ int, c *client) {
		if !c.create() {
			return
		}
		warm := new(samples)
		for i := 0; i < warmupIters; i++ {
			c.iterate(warm)
		}
	})
	setup := time.Since(d.exec)
	for _, c := range clients {
		if c.id == "" {
			d.kill()
			return nil, nil, "", 0, fmt.Errorf("%s: session creation failed: %s", w.name, strings.Join(res.reasons, "; "))
		}
	}
	return d, clients, storeDir, setup, nil
}

// mark is one slice boundary of a serve workload's timed phase: the
// daemon's CPU time and the guest's stolen time at that moment.
type mark struct {
	at          time.Time
	cpu, stolen time.Duration
}

// watchPhase reads a mark now and then one at every slice boundary,
// feeding the clock, until stop is called; stop adds a last mark and
// returns them all. over reports, to the tenants' loops, that the clock
// has run out.
func watchPhase(pid int, clock *phaseClock) (over func() bool, stop func() ([]mark, error), err error) {
	read := func() (mark, error) {
		cpu, err := procCPU(pid)
		return mark{at: time.Now(), cpu: cpu, stolen: hostStolen()}, err
	}
	m, err := read()
	if err != nil {
		return nil, nil, err
	}
	marks := []mark{m}
	var isOver atomic.Bool
	isOver.Store(clock.over())
	done, stopped := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(sliceLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-done:
				stopped <- nil
				return
			}
			m, err := read()
			if err != nil {
				isOver.Store(true)
				stopped <- err
				return
			}
			marks = append(marks, m)
			clock.add(between(marks[len(marks)-2], m))
			isOver.Store(clock.over())
		}
	}()
	stop = func() ([]mark, error) {
		close(done)
		if err := <-stopped; err != nil {
			return nil, err
		}
		m, err := read()
		// A sliver after the last boundary joins the slice before it.
		if n := len(marks); n > 1 && m.at.Sub(marks[n-1].at) < sliceLen/2 {
			marks = marks[:n-1]
		}
		return append(marks, m), err
	}
	return isOver.Load, stop, nil
}

// between is the slice two marks enclose, without its ops.
func between(a, b mark) slice {
	return slice{WallS: b.at.Sub(a.at).Seconds(), CPUMS: ms(b.cpu - a.cpu), StolenS: (b.stolen - a.stolen).Seconds()}
}

// cutSlices turns the marks into slices — one between each two — and
// puts every op into the slice it completed in.
func cutSlices(marks []mark, at []time.Time, latMS []float64) []slice {
	slices := make([]slice, len(marks)-1)
	for i := range slices {
		slices[i] = between(marks[i], marks[i+1])
	}
	for k, t := range at {
		i := sort.Search(len(slices)-1, func(i int) bool { return t.Before(marks[i+1].at) })
		slices[i].LatMS = append(slices[i].LatMS, latMS[k])
	}
	return slices
}

// runServe measures one serve workload end to end and checks its output.
func runServe(ctx context.Context, w workload, seed int64, seconds float64, plan runPlan) (*runResult, error) {
	ins := make([]*inputs, w.tenants)
	for k := range ins {
		in, err := makeInputs(w, seed, k)
		if err != nil {
			return nil, err
		}
		ins[k] = in
	}
	res := newRunResult()
	var mu sync.Mutex

	// Set-up, several times over; the last daemon carries on.
	var setups []float64
	var d *daemon
	var clients []*client
	var storeDir string
	for i := 0; i < plan.setups; i++ {
		if d != nil {
			d.kill()
			os.RemoveAll(storeDir)
		}
		var setup time.Duration
		var err error
		d, clients, storeDir, setup, err = setupServe(ctx, w, seed, plan, ins, res, &mu)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer func() { d.kill() }()
	pid := d.cmd.Process.Pid

	// Timed phase. While the tenants run, the daemon's CPU time and the
	// guest's stolen time are read at every slice boundary; afterwards each
	// delta batch goes to the slice its response arrived in.
	perTenant := make([]samples, w.tenants)
	over, stopWatch, err := watchPhase(pid, newPhaseClock(seconds))
	if err != nil {
		return nil, err
	}
	each(clients, func(i int, c *client) {
		for n := 0; n < 2 || !over(); n++ {
			c.iterate(&perTenant[i])
		}
	})
	marks, err := stopWatch()
	if err != nil {
		return nil, err
	}
	first, last := marks[0], marks[len(marks)-1]
	wall := last.at.Sub(first.at)
	var all samples
	for _, s := range perTenant {
		all.deltaMS = append(all.deltaMS, s.deltaMS...)
		all.deltaAt = append(all.deltaAt, s.deltaAt...)
		all.readMS = append(all.readMS, s.readMS...)
		all.feedbackMS = append(all.feedbackMS, s.feedbackMS...)
		all.acked += s.acked
	}
	if all.acked == 0 {
		return nil, fmt.Errorf("%s: no delta batch was acknowledged: %s", w.name, strings.Join(res.reasons, "; "))
	}
	slices := cutSlices(marks, all.deltaAt, all.deltaMS)
	kept := quietThird(slices)
	q := summarise(kept, 95)

	// Recovery, several times over: pin the tail, remember the repairs,
	// kill -9, restart on the same store, wait for the repairs to be
	// served again, compare byte for byte.
	rss, err := peakRSSMiB(fmt.Sprint(pid))
	if err != nil {
		return nil, err
	}
	var recovers []float64
	for i := 0; i < plan.recovers; i++ {
		each(clients, func(_ int, c *client) { c.padToTail() })
		before := make([][]byte, len(clients))
		each(clients, func(k int, c *client) { before[k], _ = c.repairs() })
		d.kill()
		if d, err = startDaemon(ctx, plan, storeDir); err != nil {
			return nil, err
		}
		after := make([][]byte, len(clients))
		each(clients, func(k int, c *client) {
			c.base = d.base
			after[k], _ = c.repairs()
		})
		recovers = append(recovers, time.Since(d.exec).Seconds())
		for k := range clients {
			if before[k] == nil || !bytes.Equal(before[k], after[k]) {
				res.fail("tenant %d: repairs after kill -9 and restart differ from those before", k)
			}
		}
	}

	// Repair quality of the final state, both tenants pooled.
	var pooled metrics.Eval
	for _, c := range clients {
		if e, ok := c.evaluate(); ok {
			pooled.Repairs += e.Repairs
			pooled.CorrectRepairs += e.CorrectRepairs
			pooled.Errors += e.Errors
		}
	}
	f1 := 0.0
	if pooled.Repairs > 0 && pooled.Errors > 0 {
		p := float64(pooled.CorrectRepairs) / float64(pooled.Repairs)
		r := float64(pooled.CorrectRepairs) / float64(pooled.Errors)
		if p+r > 0 {
			f1 = 2 * p * r / (p + r)
		}
	}
	res.checkF1(plan.floor(w), f1)

	res.set("setup_s", median(setups))
	res.set("op_p50_ms", q.p50MS)
	res.set("op_tail_ms", q.tailMS)
	res.set("ops_per_s", q.opsPerS)
	res.set("cpu_ms_per_op", q.cpuPer)
	res.set("peak_rss_mb", rss)
	res.set("f1", f1)
	res.set("recover_s", quietMedian(recovers))
	res.infof("%s: n=%d delta batches over %.1f s (%d slices, %d stolen) from %d closed-loop tenants; p50 %.1f p95 %.1f p99 %.1f ms, %.2f/s, %.1f ms CPU each; the quietest %d slices hold n=%d",
		w.name, all.acked, wall.Seconds(), len(slices), countStolen(slices), w.tenants, median(all.deltaMS), percentile(all.deltaMS, 95), percentile(all.deltaMS, 99),
		float64(all.acked)/wall.Seconds(), ms(last.cpu-first.cpu)/float64(all.acked), len(kept), q.ops)
	res.infof("%s: n=%d reads p50 %.2f p95 %.2f ms; n=%d feedback rounds p50 %.1f ms; %d errors in the final relation, %d repairs, %d correct",
		w.name, len(all.readMS), median(all.readMS), percentile(all.readMS, 95),
		len(all.feedbackMS), median(all.feedbackMS), pooled.Errors, pooled.Repairs, pooled.CorrectRepairs)
	res.infof("%s: set-up repetitions %s s, recovery repetitions %s s (tail pinned at %d ops per tenant)",
		w.name, joinF(setups, 3), joinF(recovers, 3), recoverTail)
	return res, nil
}
