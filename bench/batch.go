package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"holoclean"
	"holoclean/internal/metrics"
)

// Batch workloads run Cleaner.Clean in a child of the benchmark binary
// itself, so every run — and every repetition of set-up — starts from a
// cold process: fresh heap, nothing interned, nothing pooled. The child
// sees only the CSV and constraint text the parent wrote.

const (
	batchCSVFile      = "dirty.csv"
	batchDCFile       = "constraints.txt"
	batchRepairedFile = "repaired.csv"
	// batchMinReps keeps a median meaningful even at -seconds 0.
	batchMinReps = 3
)

// batchReady is the child's first stdout line: set-up is done.
type batchReady struct {
	Ready bool `json:"ready"`
}

// batchReport is the child's last stdout line.
type batchReport struct {
	// Slices is the timed phase, cut as quiet.go describes.
	Slices    []slice `json:"slices"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Digests holds one repair-list digest per timed repetition and one
	// per restore; determinism means they are all equal.
	Digests   []string  `json:"digests"`
	RestoreMS []float64 `json:"restore_ms"`
}

// repairDigest identifies a repair list bit for bit.
func repairDigest(repairs []holoclean.Repair) string {
	h := sha256.New()
	for _, r := range repairs {
		fmt.Fprintf(h, "%d|%s|%q|%q|%x\n", r.Tuple, r.Attr, r.Old, r.New, r.Probability)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchChild is the process under test of a batch workload. Set-up is
// reading the CSV, parsing the constraints and the cold first Clean; the
// timed phase repeats Clean until the time is up; recovery is
// RestoreSession from a Snapshot of the cleaned session, the library's
// own way back after a process is lost. The restores are spread evenly
// through the timed phase, between two slices each, so that one slow
// phase of the host cannot cover them all.
func batchChild(w workload, dir string, seconds float64, restores int) error {
	csv, err := os.ReadFile(filepath.Join(dir, batchCSVFile))
	if err != nil {
		return err
	}
	dcs, err := os.ReadFile(filepath.Join(dir, batchDCFile))
	if err != nil {
		return err
	}
	ds, err := holoclean.ReadCSV(bytes.NewReader(csv), "")
	if err != nil {
		return err
	}
	constraints, err := holoclean.ParseConstraints(bytes.NewReader(dcs))
	if err != nil {
		return err
	}
	opts := w.options()
	cl := holoclean.New(opts)
	if _, err := cl.Clean(ds, constraints); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(batchReady{Ready: true}); err != nil {
		return err
	}
	if seconds < 0 {
		return nil // a set-up-only repetition
	}

	sess, err := holoclean.NewSession(ds, constraints, opts)
	if err != nil {
		return err
	}
	if _, err := sess.Clean(); err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := sess.Snapshot(&snap); err != nil {
		return err
	}
	sess = nil

	// The phase ends with a slice, so that every slice is a whole one.
	var rep batchReport
	clock := newPhaseClock(seconds)
	var cur slice
	sliceStart, sliceCPU, sliceStolen := time.Now(), selfCPU(), hostStolen()
	for n := 0; n < batchMinReps || !clock.over(); n++ {
		t := time.Now()
		res, err := cl.Clean(ds, constraints)
		if err != nil {
			return err
		}
		cur.LatMS = append(cur.LatMS, ms(time.Since(t)))
		rep.Digests = append(rep.Digests, repairDigest(res.Repairs))
		if n == 0 {
			if err := res.Repaired.WriteCSVFile(filepath.Join(dir, batchRepairedFile)); err != nil {
				return err
			}
		}
		if el := time.Since(sliceStart); el >= sliceLen {
			cur.WallS, cur.CPUMS, cur.StolenS = el.Seconds(), ms(selfCPU()-sliceCPU), (hostStolen() - sliceStolen).Seconds()
			rep.Slices = append(rep.Slices, cur)
			clock.add(cur)
			cur = slice{}
			// The k-th restore is due once k/(restores+1) of the time is up.
			if k := len(rep.RestoreMS) + 1; k <= restores && clock.counted >= clock.budget*time.Duration(k)/time.Duration(restores+1) {
				if err := rep.restore(snap.Bytes(), opts, true); err != nil {
					return err
				}
			}
			sliceStart, sliceCPU, sliceStolen = time.Now(), selfCPU(), hostStolen()
		}
	}
	if len(cur.LatMS) > 0 { // batchMinReps outlasted the budget, or maxStretch cut a slice short
		cur.WallS, cur.CPUMS, cur.StolenS = time.Since(sliceStart).Seconds(), ms(selfCPU()-sliceCPU), (hostStolen() - sliceStolen).Seconds()
		rep.Slices = append(rep.Slices, cur)
	}
	for len(rep.RestoreMS) < restores { // a run too short, or too stalled, to spread them
		if err := rep.restore(snap.Bytes(), opts, false); err != nil {
			return err
		}
	}
	if rep.PeakRSSMB, err = peakRSSMiB("self"); err != nil {
		return err
	}
	return out.Encode(&rep)
}

// restore times one RestoreSession and keeps the digest of what came
// back. With retry set, a restore the host stole time from is not kept:
// the caller comes back for it after the next slice.
func (rep *batchReport) restore(snap []byte, opts holoclean.Options, retry bool) error {
	t, stolen := time.Now(), hostStolen()
	_, res, err := holoclean.RestoreSession(bytes.NewReader(snap), opts)
	if err != nil {
		return err
	}
	d := time.Since(t)
	rep.Digests = append(rep.Digests, repairDigest(res.Repairs))
	if retry && (hostStolen()-stolen).Seconds() > stolenShare*d.Seconds() {
		return nil
	}
	rep.RestoreMS = append(rep.RestoreMS, ms(d))
	return nil
}

// spawnBatchChild runs one child and returns its set-up time — from exec
// until it reports ready — and, unless seconds is negative, its report.
func spawnBatchChild(ctx context.Context, w workload, dir string, seconds float64, restores int) (time.Duration, *batchReport, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", w.name, "-dir", dir,
		"-seconds", fmt.Sprint(seconds), "-restores", fmt.Sprint(restores))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	dec := json.NewDecoder(stdout)
	var ready batchReady
	var rep *batchReport
	err = dec.Decode(&ready)
	setup := time.Since(start)
	if err == nil && !ready.Ready {
		err = fmt.Errorf("child of %s did not report ready", w.name)
	}
	if err == nil && seconds >= 0 {
		rep = new(batchReport)
		err = dec.Decode(rep)
	}
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return 0, nil, fmt.Errorf("batch child of %s: %w", w.name, err)
	}
	return setup, rep, nil
}

// runBatch measures one batch workload end to end and checks its output.
func runBatch(ctx context.Context, w workload, seed int64, seconds float64, plan runPlan) (*runResult, error) {
	in, err := makeInputs(w, seed, 0)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(plan.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, batchCSVFile), []byte(in.csv), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, batchDCFile), []byte(in.constraints), 0o644); err != nil {
		return nil, err
	}

	var setups []float64
	var rep *batchReport
	for i := 0; i < plan.setups; i++ {
		s := -1.0 // set-up only
		if i == plan.setups-1 {
			s = seconds
		}
		d, r, err := spawnBatchChild(ctx, w, dir, s, plan.restores)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		rep = r
	}

	res := newRunResult()
	res.attempted = len(rep.Digests)
	for _, d := range rep.Digests[1:] {
		if d != rep.Digests[0] {
			res.fail("a repetition or restore produced a different repair list than the first")
		}
	}
	f, err := os.Open(filepath.Join(dir, batchRepairedFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	repaired, err := holoclean.ReadCSV(f, "")
	if err != nil {
		return nil, err
	}
	eval, err := metrics.Evaluate(in.gen.Dirty, repaired, in.gen.Truth)
	if err != nil {
		return nil, err
	}
	res.checkF1(plan.floor(w), eval.F1)

	var all []float64
	for _, s := range rep.Slices {
		all = append(all, s.LatMS...)
	}
	kept := quietThird(rep.Slices)
	q := summarise(kept, 75)
	res.set("setup_s", median(setups))
	res.set("op_p50_ms", q.p50MS)
	res.set("op_tail_ms", q.tailMS)
	res.set("ops_per_s", q.opsPerS)
	res.set("cpu_ms_per_op", q.cpuPer)
	res.set("peak_rss_mb", rep.PeakRSSMB)
	res.set("f1", eval.F1)
	res.set("recover_s", quietMedian(rep.RestoreMS)/1000)
	res.infof("%s: n=%d Clean calls in %d slices (%d stolen), quartiles %.1f / %.1f / %.1f ms; the quietest %d slices hold n=%d",
		w.name, len(all), len(rep.Slices), countStolen(rep.Slices), percentile(all, 25), median(all), percentile(all, 75), len(kept), q.ops)
	res.infof("%s: %d noisy-cell repairs, precision %.3f recall %.3f", w.name, eval.Repairs, eval.Precision, eval.Recall)
	res.infof("%s: set-up repetitions %s s, restore repetitions %s ms",
		w.name, joinF(setups, 3), joinF(rep.RestoreMS, 1))
	return res, nil
}

func joinF(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", prec, x)
	}
	return strings.Join(parts, "/")
}
