package holoclean

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"holoclean/internal/compile"
	"holoclean/internal/dataset"
	"holoclean/internal/errordetect"
	"holoclean/internal/stats"
)

// Session wraps one dataset under continuous cleaning: after an initial
// full Clean, tuples can be upserted or deleted and Reclean re-repairs
// only the affected scope — scoped violation detection over the changed
// tuples and their index-reachable counterparts, delta-maintained
// statistics, shard-plan invalidation that re-executes only shards whose
// inputs changed, and weight reuse by tying key. For deltas that touch a
// small fraction of the data, Reclean produces exactly the repairs and
// marginals a from-scratch Clean of the mutated dataset would (given the
// same weights) at a fraction of the cost.
//
// A Session is not safe for concurrent use: callers running sessions
// behind a shared surface (e.g. the serve package) must serialize all
// method calls on one Session, while distinct Sessions are fully
// independent and may run in parallel.
type Session struct {
	opts        Options
	constraints []*Constraint
	ds          *Dataset

	recleans int

	// confirmed accumulates user feedback (see Session.Feedback) in
	// confirmation order; the cells are trusted — clean by fiat and
	// labeled evidence on every relearn.
	confirmed []Feedback

	// touched tracks the tuple indexes mutated since the last pass.
	touched map[int]bool

	// weights are the last learned (or restored) weights by tying key.
	weights map[string]float64

	// prev is the last finished pass — the statistics, domains, shard plan
	// and per-cell outcomes the next Reclean diffs against and carries
	// forward; nil until the first Clean. prevRows are the rows it
	// cleaned: a copy, because Upsert mutates rows in place.
	prev     *pass
	prevRows [][]dataset.Value
}

// NewSession starts a cleaning session over a copy of ds (later mutations
// through Upsert and Delete never touch the caller's dataset). The same
// validation as Clean applies: at least one repair signal is required.
func NewSession(ds *Dataset, constraints []*Constraint, opts Options) (*Session, error) {
	if err := requireSignals(constraints, opts); err != nil {
		return nil, err
	}
	return &Session{
		opts:        opts,
		constraints: constraints,
		ds:          ds.Clone(),
		touched:     make(map[int]bool),
	}, nil
}

// Dataset returns a snapshot of the session's current (dirty) dataset.
func (s *Session) Dataset() *Dataset { return s.ds.Clone() }

// NumTuples reports the current relation size.
func (s *Session) NumTuples() int { return s.ds.NumTuples() }

// Attrs returns the schema attribute names (shared; do not mutate).
func (s *Session) Attrs() []string { return s.ds.Attrs() }

// Recleans reports how many pipeline rounds ran after the initial Clean
// (delta recleans and feedback rounds both count — they share the
// Options.RelearnEvery clock).
func (s *Session) Recleans() int { return s.recleans }

// PendingMutations reports how many tuples have staged changes not yet
// folded in by a successful Reclean: the touched slots, plus the slots the
// last pass cleaned that deletions have since vacated (deleting the last
// row touches no surviving slot). Snapshot callers use it to honor
// Snapshot's precondition: a session with pending mutations is not in a
// serializable steady state.
func (s *Session) PendingMutations() int {
	return len(s.touched) + max(0, len(s.prevRows)-s.ds.NumTuples())
}

// Weights returns a copy of the session's learned weight map (tying key →
// value), usable as Options.InitialWeights.
func (s *Session) Weights() map[string]float64 {
	return maps.Clone(s.weights)
}

// Upsert replaces tuple t with the given values, or appends a new tuple
// when t is -1 (or equals the current tuple count). It returns the index
// of the written tuple. The change takes effect at the next Reclean.
func (s *Session) Upsert(t int, values []string) (int, error) {
	if len(values) != s.ds.NumAttrs() {
		return -1, fmt.Errorf("holoclean: Upsert got %d values for %d attributes", len(values), s.ds.NumAttrs())
	}
	n := s.ds.NumTuples()
	if t == -1 || t == n {
		t = s.ds.Append(values)
	} else if t >= 0 && t < n {
		for a, v := range values {
			s.ds.SetString(t, a, v)
		}
		// An upsert that overwrites a confirmed value supersedes the
		// confirmation: the cell re-enters normal detection instead of
		// staying pinned to ground truth that no longer matches the data.
		s.confirmed = slices.DeleteFunc(s.confirmed, func(f Feedback) bool {
			return f.Cell.Tuple == t && s.ds.GetString(t, f.Cell.Attr) != f.Value
		})
	} else {
		return -1, fmt.Errorf("holoclean: Upsert index %d out of range [0, %d]", t, n)
	}
	s.touched[t] = true
	return t, nil
}

// Delete removes tuple t by moving the last tuple into its slot (the
// relation is a set; order is not preserved). Only the moved tuple is
// renumbered, which keeps a deletion's invalidation footprint small.
func (s *Session) Delete(t int) error {
	n := s.ds.NumTuples()
	if t < 0 || t >= n {
		return fmt.Errorf("holoclean: Delete index %d out of range [0, %d)", t, n)
	}
	s.ds.DeleteSwap(t)
	if t < s.ds.NumTuples() {
		s.touched[t] = true // the swapped-in tuple is renumbered
	}
	delete(s.touched, s.ds.NumTuples()) // the vacated last slot no longer exists
	// Confirmations follow the tuples: the deleted tuple's die with it,
	// the swapped-in tuple's are renumbered to its new slot.
	old := s.confirmed
	s.confirmed = s.confirmed[:0]
	for _, f := range old {
		switch f.Cell.Tuple {
		case t:
			continue
		case s.ds.NumTuples():
			f.Cell.Tuple = t
		}
		s.confirmed = append(s.confirmed, f)
	}
	return nil
}

// Clean runs the full pipeline — detection, statistics, pruning, weight
// learning, grounding, inference — over the session's current dataset and
// keeps the pass for Reclean to build on. The first Reclean of a fresh
// session calls it implicitly.
func (s *Session) Clean() (*Result, error) {
	return s.run(nil, true)
}

// relearnDue reports whether Options.RelearnEvery schedules a relearn for
// the current round.
func (s *Session) relearnDue() bool {
	return s.opts.RelearnEvery > 0 && s.recleans%s.opts.RelearnEvery == 0
}

// run executes one pass over the session's current dataset and keeps it.
// Clean, Reclean, Feedback and RestoreSession all funnel through here.
func (s *Session) run(prev *pass, relearn bool) (*Result, error) {
	return s.nextPass(prev, relearn).run(s.adopt)
}

// nextPass sets up a pass over the session's current dataset — against
// prev when non-nil, with everything invalid otherwise; learning weights
// when relearn is true (or none are cached yet), reusing them by tying
// key otherwise.
func (s *Session) nextPass(prev *pass, relearn bool) *pass {
	trusted := make([]dataset.Cell, len(s.confirmed))
	for i, f := range s.confirmed {
		trusted[i] = f.Cell
	}
	p := newPass(s.opts, s.ds, s.constraints, trusted)
	if !relearn && s.weights != nil {
		p.weights = s.weights
	} else {
		p.weights = maps.Clone(p.weights) // adopt keeps them; the caller owns Options.InitialWeights
	}
	if prev != nil {
		p.prev, p.prevRows, p.touched = prev, s.prevRows, s.touched
		p.shared, p.interner = prev.shared, prev.interner
	}
	return p
}

// adopt keeps a finished pass as the base of the next Reclean: snapshot
// the rows it cleaned, take its weights, and let go of everything the
// next pass never reads (the Result with its Repaired clone, compilation
// state with its evidence domains, the delta sets, the pass before it).
func (s *Session) adopt(p *pass) {
	s.prevRows = make([][]dataset.Value, s.ds.NumTuples())
	for t := range s.prevRows {
		s.prevRows[t] = slices.Clone(s.ds.Row(t))
	}
	// The Result shares its marginal slices with the outcomes; the caller
	// owns the Result, so the retained outcomes get their own.
	for c, o := range p.outcomes {
		o.dist = slices.Clone(o.dist)
		p.outcomes[c] = o
	}
	p.working = nil
	s.prev, s.weights = p, p.weights
	s.touched = make(map[int]bool)
}

// Reclean re-repairs the dataset after the pending Upsert/Delete batch.
// Weights learned by the initial Clean are reused via their tying keys
// unless Options.RelearnEvery schedules a relearn for this round; given
// reused weights, the output is identical to Clean on the mutated
// dataset, but only shards whose inputs the delta invalidated execute
// (Result.Stats.ShardsReused counts the carried-forward remainder).
func (s *Session) Reclean() (*Result, error) {
	if s.prev == nil {
		return s.Clean()
	}
	s.recleans++
	if s.relearnDue() {
		// Scheduled relearn: a full pass, exactly like the initial Clean.
		return s.Clean()
	}
	return s.run(s.prev, false)
}

// diffRows finds the changed tuples: touched slots whose content actually
// differs from the rows the previous pass cleaned, plus appended slots.
// With no previous pass there is nothing to diff and changed stays nil,
// which every later stage reads as "everything".
func (p *pass) diffRows() error {
	if p.prev == nil {
		return nil
	}
	ds, n, prevN := p.ds, p.ds.NumTuples(), len(p.prevRows)
	p.changed = make(map[int]bool)
	p.changedAttrs = make(map[int]bool) // attributes with any value change
	for t := range p.touched {
		if t >= n {
			continue
		}
		if t >= prevN {
			p.changed[t] = true
			continue
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Get(t, a) != p.prevRows[t][a] {
				p.changedAttrs[a] = true
				p.changed[t] = true
			}
		}
	}
	for t := prevN; t < n; t++ {
		p.changed[t] = true
	}
	return nil
}

// collectStats produces the raw statistics, which depend on the rows alone
// and which detection reads: collected in full from the relation's column
// encoding (kept for maskStats), or — taking over the previous pass's —
// reapplied over exactly the rows the delta removed and added.
func (p *pass) collectStats() error {
	if p.prev == nil {
		p.cols = stats.Encode(p.ds)
		p.st = p.cols.Collect()
		return nil
	}
	p.st = p.prev.st
	// prevQuasi is taken before the apply so quasi-key flips are observable.
	p.prevQuasi = compile.QuasiKeys(p.st, p.ds.NumAttrs(), len(p.prevRows))
	p.stDelta = p.st.Apply(p.deltaViews(
		func(t int) stats.TupleView { return stats.View(p.prevRows[t], nil) },
		func(t int) stats.TupleView { return stats.View(p.ds.Row(t), nil) }))
	return nil
}

// deltaViews builds the views a delta removes from and adds to a set of
// statistics: the old view of every changed or deleted slot the previous
// pass had, the current view of every changed slot there is now.
func (p *pass) deltaViews(old, cur func(t int) stats.TupleView) (removed, added []stats.TupleView) {
	n, prevN := p.ds.NumTuples(), len(p.prevRows)
	for t := range p.changed {
		if t < prevN {
			removed = append(removed, old(t))
		}
		if t < n {
			added = append(added, cur(t))
		}
	}
	for t := n; t < prevN; t++ { // deleted tail slots
		removed = append(removed, old(t))
	}
	return removed, added
}

// maskStats produces the clean-cell statistics — co-occurrences where
// either cell was flagged noisy are discounted — at the head of prepare,
// once detection has said which cells those are: collected in full over
// the raw statistics' column encoding, or the previous pass's reapplied
// over the delta's rows and the tuples whose noisy mask moved.
func (p *pass) maskStats() {
	ds, prev := p.ds, p.prev
	if prev == nil {
		if !p.opts.DisableCooccurFeatures {
			p.masked = p.cols.CollectMasked(func(t, a int) bool {
				return p.detection.IsNoisy(dataset.Cell{Tuple: t, Attr: a})
			})
		}
		return
	}
	p.masked = prev.masked

	// Noisy-mask diff: tuples whose flagged attribute set changed re-enter
	// the masked statistics and are dirty (their cells gained or lost
	// variables, and sibling-domain discounts may shift). The mask is raw
	// detection, not the trusted-filtered domain cells: masked statistics
	// discount by detection flags alone, so confirmed cells stay masked.
	p.maskChanged = make(map[int]bool)
	for t := 0; t < min(ds.NumTuples(), len(p.prevRows)); t++ {
		if p.changed[t] {
			continue
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			if c := (Cell{Tuple: t, Attr: a}); p.detection.IsNoisy(c) != prev.detection.IsNoisy(c) {
				p.maskChanged[t] = true
				break
			}
		}
	}
	if p.masked == nil {
		return // co-occurrence features are off: no statistics-backed dirt to mark
	}
	maskView := func(row []dataset.Value, det *errordetect.Result, t int) stats.TupleView {
		return stats.View(row, func(a int) bool { return !det.IsNoisy(Cell{Tuple: t, Attr: a}) })
	}
	oldView := func(t int) stats.TupleView { return maskView(p.prevRows[t], prev.detection, t) }
	curView := func(t int) stats.TupleView { return maskView(ds.Row(t), p.detection, t) }
	removed, added := p.deltaViews(oldView, curView)
	for t := range p.maskChanged { // content unchanged, flags moved
		removed = append(removed, oldView(t))
		added = append(added, curView(t))
	}
	p.maskedDelta = p.masked.Apply(removed, added)
}

// invalidateTuples computes the dirty set of a pass with a previous one:
// the tuples whose shards must re-execute. It leaves dirty nil — every
// shard executes — when there is no previous pass or the delta cannot be
// scoped.
func (p *pass) invalidateTuples() error {
	if p.prev == nil {
		return nil
	}
	ds, prev := p.ds, p.prev

	// Candidate diff: cells whose pruned domain changed invalidate their
	// tuple (and, through the join buckets, their counterparts). Every
	// candidate change also shifts the shared candidate-label buckets of
	// its attribute — including changes on tuples that are already dirty
	// for other reasons — so the attribute's cached index must be rebuilt
	// either way.
	candChanged := make(map[int]bool)
	for i, c := range p.domains.Cells {
		if !slices.Equal(p.domains.Candidates[i], prev.domains.Of(c)) {
			p.changedAttrs[c.Attr] = true
			if !p.changed[c.Tuple] && !p.maskChanged[c.Tuple] {
				candChanged[c.Tuple] = true
			}
		}
	}
	for _, c := range prev.domains.Cells {
		if p.domains.Index(c) < 0 {
			// The cell left the noisy set: its candidate-set contribution
			// to the attribute's label buckets collapses to its initial
			// value. When it left by being confirmed the noisy mask did not
			// move, yet it stopped being a query variable — which shifts its
			// siblings' weak-evidence discounts and its counterparts' DC
			// factors — so its tuple is a candidate change like any other.
			p.changedAttrs[c.Attr] = true
			if c.Tuple < ds.NumTuples() && !p.changed[c.Tuple] && !p.maskChanged[c.Tuple] {
				candChanged[c.Tuple] = true
			}
		}
	}

	// Shared-index refresh: keep per-attribute indexes untouched by the
	// delta, drop the rest, rebind to the mutated dataset.
	dirtyAttrs := p.changedAttrs
	if ds.NumTuples() != len(p.prevRows) {
		dirtyAttrs = make(map[int]bool)
		for a := 0; a < ds.NumAttrs(); a++ {
			dirtyAttrs[a] = true
		}
	}
	p.shared.Rebind(ds, p.domains, dirtyAttrs)

	// Dirty closure: changed tuples, mask/candidate/match diffs, and one
	// join hop outward — any tuple whose candidate labels intersect a
	// source tuple's old or new labels on a constraint equality join may
	// gain or lose grounded counterparts. Statistics-context dirt is
	// added per cell, by the featurizer that reads the statistics.
	if p.prep.RelationWide {
		return nil // a featurizer over the whole relation: nothing survives
	}
	for _, b := range p.prep.Bounds {
		if b.TupleVars == 2 && len(b.Joins) == 0 {
			return nil // scan-grounded constraint: no index to scope by
		}
	}
	p.dirty = make(map[int]bool)
	for _, set := range []map[int]bool{p.changed, p.maskChanged, candChanged, p.matchChanged()} {
		for t := range set {
			p.dirty[t] = true
		}
	}
	p.propagateJoins(candChanged)
	p.prep.MarkStatDirty(compile.StatsDelta{Raw: p.stDelta, Masked: p.maskedDelta, PrevQuasiKey: p.prevQuasi}, p.dirty)
	return nil
}

// propagateJoins marks as dirty every tuple whose grounded counterpart
// set may have changed: for each constraint σ and each source tuple m
// whose delta touches an attribute σ references, the tuples whose
// candidate labels intersect m's old or new labels on σ's equality-join
// attributes are one join hop from the delta and re-execute. Constraints
// that reference none of a source's changed attributes see exactly the
// same counterpart contributions as before and propagate nothing.
//
// A source's relevant changes are its initial-value changes (counterpart
// rows fold into relaxed features and DC factors by value); under
// correlation-factor variants, candidate-set and noisy-mask changes on
// referenced attributes count too, since DC grounding joins through
// candidate-label buckets and scopes pairs by the query-attribute map.
func (p *pass) propagateJoins(candChanged map[int]bool) {
	ds, n, prevN, prev := p.ds, p.ds.NumTuples(), len(p.prevRows), p.prev

	// sourceAttrs maps each source tuple to the attribute set its delta
	// touched (nil means every attribute: appended or deleted tuples).
	sourceAttrs := make(map[int]map[int]bool)
	all := func(t int) { sourceAttrs[t] = nil }
	add := func(t, a int) {
		if attrs, ok := sourceAttrs[t]; !ok || attrs != nil {
			if !ok {
				sourceAttrs[t] = map[int]bool{a: true}
			} else {
				attrs[a] = true
			}
		}
	}
	for t := range p.changed {
		if t >= prevN || t >= n {
			all(t)
			continue
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			if ds.Get(t, a) != p.prevRows[t][a] {
				add(t, a)
			}
		}
	}
	for t := n; t < prevN; t++ {
		all(t) // deleted slots vacate every join bucket
	}
	if p.opts.Variant.DCFactors {
		candMaskAttrs := func(t int) {
			for a := 0; a < ds.NumAttrs(); a++ {
				c := Cell{Tuple: t, Attr: a}
				var cur []dataset.Value
				if t < n {
					cur = p.domains.Of(c)
				}
				if !slices.Equal(cur, prev.domains.Of(c)) {
					add(t, a)
				}
			}
		}
		for t := range p.maskChanged {
			candMaskAttrs(t)
		}
		for t := range candChanged {
			candMaskAttrs(t)
		}
	}

	// srcLabels gathers the old and new labels tuple m exposes on attr:
	// initial values plus noisy-cell candidate sets, before and after.
	srcLabels := func(m, attr int) []dataset.Value {
		var out []dataset.Value
		if m < prevN {
			if v := p.prevRows[m][attr]; v != dataset.Null {
				out = append(out, v)
			}
			out = append(out, prev.domains.Of(Cell{Tuple: m, Attr: attr})...)
		}
		if m < n {
			if v := ds.Get(m, attr); v != dataset.Null {
				out = append(out, v)
			}
			out = append(out, p.domains.Of(Cell{Tuple: m, Attr: attr})...)
		}
		return out
	}
	mark := func(attr int, vals []dataset.Value) {
		if len(vals) == 0 {
			return
		}
		buckets := p.shared.Candidates(attr)
		for _, v := range vals {
			for _, t := range buckets[int32(v)] {
				p.dirty[t] = true
			}
		}
	}
	for _, b := range p.prep.Bounds {
		if b.TupleVars != 2 {
			continue
		}
		for m, attrs := range sourceAttrs {
			relevant := attrs == nil
			for a := range attrs {
				if b.References(-1, a) {
					relevant = true
					break
				}
			}
			if !relevant {
				continue
			}
			for _, j := range b.Joins {
				mark(j[0], srcLabels(m, j[1]))
				mark(j[1], srcLabels(m, j[0]))
			}
		}
	}
}

// matchChanged returns the tuples whose dictionary matches (recomputed in
// full by the prepare stage) differ from the previous pass's. Without
// matching dependencies both sides are empty.
func (p *pass) matchChanged() map[int]bool {
	out := make(map[int]bool)
	for t, ms := range p.matches {
		if !reflect.DeepEqual(ms, p.prev.matches[t]) {
			out[t] = true
		}
	}
	for t := range p.prev.matches {
		if t < p.ds.NumTuples() && p.matches[t] == nil {
			out[t] = true
		}
	}
	return out
}
