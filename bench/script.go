package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"holoclean/serve"
)

// deltaKind selects the shape of a tenant's delta stream.
type deltaKind int

const (
	// kindLocal typo-corrupts a few rows per batch and reverts the rows
	// corrupted revertLag batches earlier: in-place updates with tight
	// locality, so most shards survive a reclean.
	kindLocal deltaKind = iota
	// kindWide appends typo'd copies of truth rows and deletes the rows
	// appended revertLag batches earlier: the relation resizes on every
	// batch, which invalidates broadly.
	kindWide
)

const (
	batchRows     = 10 // rows corrupted or appended per batch (1% of a tenant)
	revertLag     = 4  // batches until a corruption is reverted / an append deleted
	feedbackEvery = 50 // iterations between feedback rounds
	feedbackCells = 5  // confirmations per feedback round
	warmupIters   = 6  // iterations acked before the timed phase: the stream is steady from revertLag+1 on
)

// script generates one tenant's request stream from a seed and mirrors
// every op onto its own dirty and truth relations. The stream never looks
// at a server response, so it is byte-identical on every commit, and the
// corrupt/revert (append/delete) pairing keeps the relation stationary:
// batch 300 costs what batch 30 does.
type script struct {
	kind  deltaKind
	rng   *rand.Rand
	name  string // op_id prefix
	attrs []string
	n0    int // original rows; they never move

	dirty, truth [][]string // the mirror, row-aligned with the server's relation
	// orig holds the revert target of each original row: its generated
	// value, except where a confirmation has replaced it with the truth.
	orig [][]string

	// Wide stream: appended rows carry ids so the mirror can find them
	// again after DeleteSwap moved them.
	ids    []int
	pos    map[int]int
	nextID int

	lag  [][]int      // per recent batch: corrupted row indexes (local) or appended ids (wide)
	busy map[int]bool // local: rows currently corrupted

	confirmed map[[2]int]bool
	typoAttrs []int
	fbAttrs   []int
	iter      int
}

func newScript(w workload, in *inputs, seed int64, tenant int) *script {
	s := &script{
		kind:      w.kind,
		rng:       rand.New(rand.NewSource(seed*7919 + int64(tenant)*104729 + 17)),
		name:      fmt.Sprintf("t%d", tenant),
		attrs:     in.gen.Dirty.Attrs(),
		n0:        in.gen.Dirty.NumTuples(),
		dirty:     rowsOf(in.gen.Dirty),
		truth:     rowsOf(in.gen.Truth),
		orig:      rowsOf(in.gen.Dirty),
		pos:       make(map[int]int),
		busy:      make(map[int]bool),
		confirmed: make(map[[2]int]bool),
		typoAttrs: w.typoAttrs,
		fbAttrs:   w.feedbackAttrs,
	}
	s.ids = make([]int, s.n0)
	for i := range s.ids {
		s.ids[i] = i
		s.pos[i] = i
	}
	s.nextID = s.n0
	return s
}

// typo corrupts a string under rng the way datagen's generators do: one
// character substituted, dropped or doubled.
func typo(rng *rand.Rand, s string) string {
	if len(s) == 0 {
		return "x"
	}
	b := []byte(s)
	i := rng.Intn(len(b))
	switch rng.Intn(3) {
	case 0:
		b[i] = 'x'
		return string(b)
	case 1:
		return string(b[:i]) + string(b[i+1:])
	default:
		return string(b[:i+1]) + string(b[i:])
	}
}

func cloneRow(r []string) []string { return append([]string(nil), r...) }

// deleteSwap mirrors dataset.DeleteSwap: the last row moves into slot i.
func (s *script) deleteSwap(i int) {
	last := len(s.dirty) - 1
	delete(s.pos, s.ids[i])
	if i != last {
		s.dirty[i], s.truth[i], s.ids[i] = s.dirty[last], s.truth[last], s.ids[last]
		s.pos[s.ids[i]] = i
	}
	s.dirty, s.truth, s.ids = s.dirty[:last], s.truth[:last], s.ids[:last]
}

// nextDelta returns the next delta batch and applies it to the mirror.
func (s *script) nextDelta() *serve.DeltaRequest {
	s.iter++
	req := &serve.DeltaRequest{OpID: fmt.Sprintf("%s-d%d", s.name, s.iter)}
	upsert := func(row int, values []string) {
		req.Ops = append(req.Ops, serve.DeltaOp{Op: "upsert", Row: row, Values: cloneRow(values)})
	}
	var old []int
	if len(s.lag) == revertLag {
		old, s.lag = s.lag[0], s.lag[1:]
	}
	var cur []int
	switch s.kind {
	case kindLocal:
		for _, t := range old {
			copy(s.dirty[t], s.orig[t])
			delete(s.busy, t)
			upsert(t, s.dirty[t])
		}
		for len(cur) < batchRows {
			t := s.rng.Intn(s.n0)
			if s.busy[t] {
				continue
			}
			s.busy[t] = true
			a := s.typoAttrs[s.rng.Intn(len(s.typoAttrs))]
			s.dirty[t][a] = typo(s.rng, s.orig[t][a])
			cur = append(cur, t)
			upsert(t, s.dirty[t])
		}
	case kindWide:
		for _, id := range old {
			i := s.pos[id]
			req.Ops = append(req.Ops, serve.DeltaOp{Op: "delete", Row: i})
			s.deleteSwap(i)
		}
		for len(cur) < batchRows {
			truth := cloneRow(s.truth[s.rng.Intn(s.n0)])
			row := cloneRow(truth)
			a := s.typoAttrs[s.rng.Intn(len(s.typoAttrs))]
			row[a] = typo(s.rng, row[a])
			id := s.nextID
			s.nextID++
			s.pos[id] = len(s.dirty)
			s.dirty, s.truth, s.ids = append(s.dirty, row), append(s.truth, truth), append(s.ids, id)
			cur = append(cur, id)
			upsert(-1, row)
		}
	}
	s.lag = append(s.lag, cur)
	return req
}

// feedbackDue reports whether the iteration just generated ends with a
// feedback round.
func (s *script) feedbackDue() bool { return s.iter%feedbackEvery == 0 }

// nextFeedback confirms seed-chosen cells of original rows to their truth
// value. A cell is confirmed at most once, and the mirror adopts the
// confirmed value as the row's revert target so later upserts of the row
// keep it.
func (s *script) nextFeedback() *serve.FeedbackRequest {
	req := &serve.FeedbackRequest{OpID: fmt.Sprintf("%s-f%d", s.name, s.iter)}
	for len(req.Items) < feedbackCells {
		t := s.rng.Intn(s.n0)
		a := s.fbAttrs[s.rng.Intn(len(s.fbAttrs))]
		if s.confirmed[[2]int{t, a}] || s.truth[t][a] == "" {
			continue
		}
		s.confirmed[[2]int{t, a}] = true
		s.dirty[t][a], s.orig[t][a] = s.truth[t][a], s.truth[t][a]
		req.Items = append(req.Items, serve.FeedbackItem{Tuple: t, Attr: s.attrs[a], Value: s.truth[t][a]})
	}
	return req
}

// body renders a request the way the load generator sends it.
func body(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only strings and ints are marshaled
	}
	return b
}
