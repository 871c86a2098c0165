package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"holoclean"
	"holoclean/internal/store"
	"holoclean/internal/telemetry"
)

// TestReplayFoldsTail holds the folded replay to the record-by-record one
// it replaces. crashScript runs on a server that checkpoints after the
// create (as every create does) and after every step; the log is then cut
// at every record boundary after every checkpoint, and each cut — that
// checkpoint plus the op records up to the cut — is replayed twice: by
// replayTenant, which stages the tail and runs one pass, and by the
// reference written here, RestoreSession followed by applyRecord per
// record, a pass each. The two must publish the same repairs and agree on
// the snapshot bytes, the reclean counter and the applied op_id window; a
// cut that ends the log must also equal the live tenant. The pipeline's
// "total" stage observations count the passes replayTenant ran: one per
// relearn inside the tail, plus one unless the tail ends on a relearn — so
// exactly one for the tails of up to five records without a relearn
// period, and 1 + relearns for those crossing RelearnEvery 2's.
func TestReplayFoldsTail(t *testing.T) {
	for _, every := range []int{2, 0} {
		t.Run(fmt.Sprintf("relearn_every=%d", every), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			cfg := storeConfig(t.TempDir(), 1)
			cfg.CheckpointEvery, cfg.Options.RelearnEvery, cfg.Telemetry = 1000, every, reg
			sv, tc := newTestServer(t, cfg)
			id := tc.create("fold", fixtureCSV("rf", 20), 1, 0).ID
			live := sv.lookup(id)
			checkpoint := func() {
				live.mu.Lock()
				defer live.mu.Unlock()
				if err := sv.checkpointLocked(live); err != nil {
					t.Fatal(err)
				}
			}
			for i, st := range crashScript("rf") { // create cut the first checkpoint
				runStep(t, tc, id, i, st)
				checkpoint()
			}
			frames, _, err := live.log.FramesSince(0)
			if err != nil {
				t.Fatal(err)
			}
			passes := reg.HistogramVec("holoclean_pipeline_stage_seconds", "", telemetry.LatencyBuckets, "stage").With("total")

			cuts := 0
			for c, ckFrame := range frames {
				if ckFrame.Op != store.OpCheckpoint {
					continue
				}
				ck, err := decodeCheckpoint(id, ckFrame.Payload)
				if err != nil {
					t.Fatal(err)
				}
				var tail []store.Record
				for e := c; e < len(frames); e++ {
					if e > c {
						if frames[e].Op == store.OpCheckpoint {
							continue
						}
						tail = append(tail, frames[e].Record)
					}
					label := fmt.Sprintf("checkpoint at recleans=%d + %d records", ck.Envelope.Recleans, len(tail))
					rec := &store.Recovery{Checkpoint: ckFrame.Payload, Tail: slices.Clone(tail)}
					folded := &tenant{id: id, log: live.log}
					before := passes.Count()
					folded.mu.Lock()
					err := sv.replayTenant(folded, rec)
					folded.mu.Unlock()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					relearns, lastRelearns := 0, false
					for k := range tail {
						lastRelearns = every > 0 && (ck.Envelope.Recleans+k+1)%every == 0
						if lastRelearns {
							relearns++
						}
					}
					want := relearns
					if !lastRelearns {
						want++
					}
					if got := int(passes.Count() - before); got != want {
						t.Fatalf("%s: replay ran %d passes, want %d (%d relearns inside)", label, got, want, relearns)
					}
					ref := replayRecordByRecord(t, sv, id, ck, tail)
					requireSameTenant(t, label, folded, ref)
					if e == len(frames)-1 {
						requireSameTenant(t, label+" (live)", folded, live)
					}
					cuts++
				}
			}
			if cuts != 21 { // 6 checkpoints, 5 op records
				t.Fatalf("replayed %d cuts, want 21", cuts)
			}
		})
	}
}

// replayRecordByRecord is the replay the folded one replaces: restore the
// checkpoint with its pass, then apply every record with its own.
func replayRecordByRecord(t *testing.T, sv *Server, id string, ck walCheckpoint, tail []store.Record) *tenant {
	t.Helper()
	ref := &tenant{id: id}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	sv.primeFromEnvelope(ref, ck)
	s, res, err := holoclean.RestoreSession(bytes.NewReader(ck.Envelope.Session), sv.optionsFor(ref.ov))
	if err != nil {
		t.Fatal(err)
	}
	ref.session = s
	for _, r := range tail {
		rr, err := sv.applyRecord(ref, r)
		if err != nil {
			t.Fatal(err)
		}
		if rr != nil {
			res = rr
		}
	}
	if err := ref.setResult(res); err != nil {
		t.Fatal(err)
	}
	return ref
}

// requireSameTenant compares what a recovered tenant publishes and
// persists: the repairs JSON, the session's snapshot bytes, the reclean
// counter and the applied op_id window.
func requireSameTenant(t *testing.T, label string, got, want *tenant) {
	t.Helper()
	state := func(tn *tenant) (repairs, snap []byte, recleans int, window []string) {
		tn.mu.Lock()
		defer tn.mu.Unlock()
		infos := []RepairInfo{}
		for _, r := range tn.last.Repairs {
			infos = append(infos, repairInfo(r))
		}
		repairs, err := json.Marshal(infos)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tn.session.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return repairs, buf.Bytes(), tn.session.Recleans(), slices.Clone(tn.appliedOrder)
	}
	gr, gs, gn, gw := state(got)
	wr, ws, wn, ww := state(want)
	switch {
	case !bytes.Equal(gr, wr):
		t.Fatalf("%s: published repairs differ:\ngot  %s\nwant %s", label, gr, wr)
	case !bytes.Equal(gs, ws):
		t.Fatalf("%s: snapshots differ", label)
	case gn != wn:
		t.Fatalf("%s: Recleans() = %d, want %d", label, gn, wn)
	case !slices.Equal(gw, ww):
		t.Fatalf("%s: applied op_id window %v, want %v", label, gw, ww)
	}
}
