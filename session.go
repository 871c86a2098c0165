package holoclean

import (
	"fmt"
	"maps"
	"math"
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
// statistics, weight reuse by tying key and, in the independent-variable
// regime, re-inference of only the cells whose inputs changed (a
// correlated model re-runs its whole shard plan). For deltas that touch a
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

	// prev is the last finished pass — the statistics, domains,
	// weights and per-cell outcomes the next Reclean diffs against and
	// carries forward; nil until the first Clean. before is the pending
	// delta against it: for every slot below prev's tuple count that
	// Upsert, Delete or Feedback has written since, the row prev cleaned
	// there, captured before the slot's first write.
	prev   *pass
	before map[int][]dataset.Value

	// owed is non-nil while the session owes a pass: rounds were counted
	// (by Stage, or by a Reclean whose pass failed) or a snapshot decoded
	// (StageSession) whose mutations no pass has folded in yet. It holds
	// the weights that pass broadcasts — prev's, or the snapshot's on a
	// session with no pass yet — and settle runs it.
	owed map[string]float64
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
// folded in by a successful Reclean: the slots written since the last pass
// (vacated ones included, so deleting the last row counts) plus the slots
// appended beyond it; zero before the first pass, which has nothing to
// diff against. Snapshot callers use it to honor Snapshot's precondition:
// a session with pending mutations is not in a serializable steady state.
func (s *Session) PendingMutations() int {
	if s.prev == nil {
		return 0
	}
	return len(s.before) + max(0, s.ds.NumTuples()-s.prev.n)
}

// Weights returns a copy of the session's learned weight map (tying key →
// value), usable as Options.InitialWeights: the last pass's, or a decoded
// snapshot's until its pass runs; nil before the first pass.
func (s *Session) Weights() map[string]float64 {
	if s.prev == nil {
		return maps.Clone(s.owed)
	}
	return maps.Clone(s.prev.weights)
}

// cleaned reports whether the session has a pass behind it or owes one
// with weights to broadcast — whether a round has a clock to advance.
func (s *Session) cleaned() bool { return s.prev != nil || s.owed != nil }

// capture records the row the last pass cleaned in slot t before the
// slot's first write since that pass. Slots the pass never saw (appended
// since) have no before-image: the diff counts them as wholly new.
func (s *Session) capture(t int) {
	if s.prev == nil || t >= s.prev.n {
		return
	}
	if _, ok := s.before[t]; !ok {
		s.before[t] = slices.Clone(s.ds.Row(t))
	}
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
		s.capture(t)
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
	// Both slots change: t takes the last tuple, the last slot is vacated.
	s.capture(t)
	s.capture(n - 1)
	s.ds.DeleteSwap(t)
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
	return s.run(nil, nil)
}

// relearnDue reports whether Options.RelearnEvery schedules a relearn for
// the current round.
func (s *Session) relearnDue() bool {
	return s.opts.RelearnEvery > 0 && s.recleans%s.opts.RelearnEvery == 0
}

// run executes one pass over the session's current dataset and keeps it.
// Clean, Reclean, Feedback and RestoreSession all funnel through here.
func (s *Session) run(prev *pass, weights map[string]float64) (*Result, error) {
	return s.nextPass(prev, weights).run(s.adopt)
}

// nextPass sets up a pass over the session's current dataset — against
// prev and the pending delta when prev is non-nil, with everything invalid
// otherwise; broadcasting weights by tying key when they are non-nil,
// learning them (or taking Options.InitialWeights) otherwise. Weights
// passed with a prev are prev's (a Reclean), so the pass reuses their
// resolved ties.
func (s *Session) nextPass(prev *pass, weights map[string]float64) *pass {
	trusted := make([]dataset.Cell, len(s.confirmed))
	for i, f := range s.confirmed {
		trusted[i] = f.Cell
	}
	p := newPass(s.opts, s.ds, s.constraints, trusted)
	if weights != nil {
		p.weights = weights
	} else {
		p.weights = maps.Clone(p.weights) // adopt keeps them; the caller owns Options.InitialWeights
	}
	if prev != nil {
		p.prev, p.before = prev, s.before
		p.shared, p.interner = prev.shared, prev.interner
		if weights != nil { // prev's own: a Reclean
			p.ties, p.unresolved = prev.ties, prev.unresolved
		}
	}
	return p
}

// adopt keeps a finished pass as the base of the next Reclean — its
// weights included — clears the pending delta it folded in and the debt it
// paid, and lets go of everything the next pass never reads (the Result
// with its Repaired clone, compilation state with its evidence domains, the
// delta sets, the pass before it).
func (s *Session) adopt(p *pass) {
	p.working = nil
	s.prev, s.before, s.owed = p, make(map[int][]dataset.Value), nil
}

// Reclean re-repairs the dataset after the pending Upsert/Delete batch.
// Weights learned by the initial Clean are reused via their tying keys
// unless Options.RelearnEvery schedules a relearn for this round; given
// reused weights, the output is identical to Clean on the mutated
// dataset. Under the independent-variable variants only the cells whose
// inputs the delta invalidated are re-inferred (Result.Stats.ShardsReused
// counts the shards of the full plan carried forward); a DC Factors
// session re-executes its whole shard plan.
//
// On a session that owes a pass — rounds Stage closed without one, or a
// snapshot StageSession decoded — Reclean runs that one pass over the
// relation as it stands and counts no round of its own.
func (s *Session) Reclean() (*Result, error) {
	if s.owed == nil {
		if res, err := s.stage(nil); res != nil || err != nil {
			return res, err
		}
	}
	return s.settle()
}

// Stage closes one round of the session — a Reclean when fb is nil (of the
// Upsert/Delete mutations staged since the last round), a Feedback of fb
// otherwise — with that round's validation, relearn schedule and reclean
// counter, but without its pass: the round's pass is owed, and rounds
// staged one after another owe one pass between them, which the next
// Reclean runs. A round Options.RelearnEvery schedules a relearn for runs
// its full pass now, over the relation staged so far, exactly as the live
// round would, and returns that pass's Result, as does a round of a
// session with no pass behind it, which starts with the initial Clean as
// Reclean and Feedback do; every other round returns nil. The relation, confirmations, counter, weights and value dictionary
// after a run of staged rounds and the owed pass are the ones the same
// rounds run live leave, so a recovered session can replay a log tail in
// one pass (see StageSession).
func (s *Session) Stage(fb []Feedback) (*Result, error) {
	res, err := s.stage(fb)
	if res == nil && err == nil {
		err = s.internLabels()
	}
	return res, err
}

// stage closes one round without its owed pass (see Stage): on a session
// with nothing to build on it first runs the initial Clean, which is all a
// Reclean of such a session does, and a Feedback's start; a feedback batch
// is confirmed; the round is counted and, when a relearn is due, runs its
// full pass and returns its Result.
func (s *Session) stage(fb []Feedback) (*Result, error) {
	if fb != nil && len(fb) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidFeedback)
	}
	if !s.cleaned() {
		if res, err := s.Clean(); err != nil || fb == nil {
			return res, err
		}
	}
	if fb != nil {
		if err := s.confirm(fb); err != nil {
			return nil, err
		}
	}
	s.recleans++
	if s.relearnDue() {
		// Scheduled relearn: a full pass, exactly like the initial Clean.
		return s.Clean()
	}
	if s.owed == nil {
		s.owed = s.prev.weights
	}
	return nil, nil
}

// settle runs the pass the session owes: over the relation as it stands,
// against prev and the pending delta when there is a prev, broadcasting the
// owed weights.
func (s *Session) settle() (*Result, error) {
	return s.run(s.prev, s.owed)
}

// internLabels interns into the relation's dictionary, in order, the
// labels the pass a round owes would have interned (compile.InternLabels):
// a live round's pass interns the dictionary suggestions of the relation as
// the round left it before the next round's values, and value ids order
// candidate sets, so a staged round must too. Constraint constants are
// interned by the first pass already; only match dependencies add labels.
func (s *Session) internLabels() error {
	if len(s.opts.MatchDependencies) == 0 {
		return nil
	}
	matched, err := matchDictionaries(s.opts, s.ds)
	if err != nil {
		return err
	}
	compile.InternLabels(s.ds, s.constraints, matched)
	return nil
}

// diffRows compares every slot the pending delta captured with its
// current row, once, and records which attributes moved: the one record
// of the delta every later stage reads. Slots appended since the previous
// pass and slots deletions vacated count as every attribute. With no
// previous pass there is nothing to diff and changed stays nil, which
// every later stage reads as "everything".
func (p *pass) diffRows() error {
	if p.prev == nil {
		return nil
	}
	ds, n := p.ds, p.ds.NumTuples()
	every := make([]int, ds.NumAttrs())
	for a := range every {
		every[a] = a
	}
	p.changed = make(map[int][]int)
	for t, row := range p.before {
		if t >= n {
			p.changed[t] = every
			continue
		}
		var moved []int
		for a, v := range row {
			if ds.Get(t, a) != v {
				moved = append(moved, a)
			}
		}
		if moved != nil {
			p.changed[t] = moved
		}
	}
	for t := p.prev.n; t < n; t++ {
		p.changed[t] = every
	}
	return nil
}

// oldRow is the row the previous pass cleaned in slot t: its before-image
// when the slot was written since, its current row otherwise.
func (p *pass) oldRow(t int) []dataset.Value {
	if row, ok := p.before[t]; ok {
		return row
	}
	return p.ds.Row(t)
}

// collectStats produces the raw statistics, which depend on the rows alone
// and which detection reads: collected in full from the relation's column
// encoding (kept for maskStats), or — taking over the previous pass's —
// reapplied over exactly the rows the delta removed and added.
func (p *pass) collectStats() error {
	if p.prev == nil {
		p.cols = stats.Encode(p.ds)
		p.st = p.cols.Collect(defaultWorkers(p.opts.Workers))
		return nil
	}
	p.st = p.prev.st
	// prevQuasi is taken before the apply so quasi-key flips are observable.
	p.prevQuasi = compile.QuasiKeys(p.st, p.ds.NumAttrs(), p.prev.n)
	p.stDelta = p.st.Apply(p.deltaViews(
		func(t int) stats.TupleView { return stats.View(p.oldRow(t), nil) },
		func(t int) stats.TupleView { return stats.View(p.ds.Row(t), nil) }))
	return nil
}

// deltaViews builds the views a delta removes from and adds to a set of
// statistics: the old view of every changed slot the previous pass had
// (vacated ones included), the current view of every changed slot there
// is now.
func (p *pass) deltaViews(old, cur func(t int) stats.TupleView) (removed, added []stats.TupleView) {
	n, prevN := p.ds.NumTuples(), p.prev.n
	for t := range p.changed {
		if t < prevN {
			removed = append(removed, old(t))
		}
		if t < n {
			added = append(added, cur(t))
		}
	}
	return removed, added
}

// maskStats produces the clean-cell statistics — co-occurrences where
// either cell was flagged noisy are discounted — at the head of prepare,
// once detection has said which cells those are: collected in full over
// the raw statistics' column encoding, or the previous pass's reapplied
// over the delta's rows and the unchanged tuples whose noisy mask moved.
// The mask is raw detection, not the trusted-filtered domain cells: masked
// statistics discount by detection flags alone, so confirmed cells stay
// masked.
func (p *pass) maskStats() {
	ds, prev := p.ds, p.prev
	if prev == nil {
		if !p.opts.DisableCooccurFeatures {
			p.masked = p.cols.CollectMasked(func(t, a int) bool {
				return p.detection.IsNoisy(dataset.Cell{Tuple: t, Attr: a})
			}, defaultWorkers(p.opts.Workers))
		}
		return
	}
	p.masked = prev.masked
	if p.masked == nil {
		return // co-occurrence features are off
	}
	maskView := func(row []dataset.Value, det *errordetect.Result, t int) stats.TupleView {
		return stats.View(row, func(a int) bool { return !det.IsNoisy(Cell{Tuple: t, Attr: a}) })
	}
	oldView := func(t int) stats.TupleView { return maskView(p.oldRow(t), prev.detection, t) }
	curView := func(t int) stats.TupleView { return maskView(ds.Row(t), p.detection, t) }
	removed, added := p.deltaViews(oldView, curView)
	for t := 0; t < min(ds.NumTuples(), prev.n); t++ {
		if p.changed[t] != nil {
			continue
		}
		for a := 0; a < ds.NumAttrs(); a++ {
			if c := (Cell{Tuple: t, Attr: a}); p.detection.IsNoisy(c) != prev.detection.IsNoisy(c) {
				removed, added = append(removed, oldView(t)), append(added, curView(t))
				break
			}
		}
	}
	p.maskedDelta = p.masked.Apply(removed, added)
}

// carriesOutcomes reports whether a session's passes scope a delta to a
// dirty set and carry every other cell's outcome forward, and so whether a
// pass keeps outcomes at all. Only an independent variable's outcome is a
// closed form of its own factors (not under DC Factors), and neither a
// featurizer over the whole relation (fusion) nor a scan-grounded
// constraint has an index to scope by.
func (p *pass) carriesOutcomes() bool {
	if p.opts.Variant.DCFactors || p.prep.RelationWide {
		return false
	}
	for _, b := range p.prep.Bounds {
		if b.TupleVars == 2 && len(b.Joins) == 0 {
			return false
		}
	}
	return true
}

// invalidateTuples computes the dirty set of a pass with a previous one:
// the tuples whose shards must re-execute. It leaves dirty nil — every
// shard executes — when there is no previous pass or the delta cannot be
// scoped (carriesOutcomes).
func (p *pass) invalidateTuples() error {
	if p.prev == nil {
		return nil
	}
	// Shared-index refresh: rebind to the mutated dataset and domains,
	// which drops every bucket index and the counterpart tables of the
	// constraints on attributes whose values changed.
	changedAttrs := make(map[int]bool)
	for _, attrs := range p.changed {
		for _, a := range attrs {
			changedAttrs[a] = true
		}
	}
	p.shared.Rebind(p.ds, p.domains, changedAttrs)

	if !p.carriesOutcomes() {
		return nil
	}

	// Dirty closure: a query variable is independent of every other (DC
	// Feats), so a tuple re-executes for one of four reasons only, marked in
	// this order: its row changed; one of its cells entered the query
	// domains, left them or changed candidates (markDomainMoves); it is one
	// join hop from a changed tuple (propagateJoins); a counter one of its
	// cells' features reads moved (MarkStatDirty).
	p.dirty = make(map[int]bool)
	for t := range p.changed {
		p.dirty[t] = true
	}
	p.markDomainMoves()
	p.propagateJoins()
	p.prep.MarkStatDirty(compile.StatsDelta{Raw: p.stDelta, Masked: p.maskedDelta, PrevQuasiKey: p.prevQuasi}, p.dirty)
	return nil
}

// markDomainMoves marks the tuples of the cells that entered the query
// domains, left them or changed candidates: one merge walk over the two
// passes' cells, which both ascend by tuple, then attribute. A cell that
// left with its vacated slot marks nothing.
func (p *pass) markDomainMoves() {
	old, cur, n, w := p.prev.domains, p.domains, p.ds.NumTuples(), p.ds.NumAttrs()
	rank := func(cells []dataset.Cell, i int) int { // past the end ranks after every cell
		if i == len(cells) {
			return math.MaxInt
		}
		return cells[i].Tuple*w + cells[i].Attr
	}
	for i, j := 0, 0; i < len(old.Cells) || j < len(cur.Cells); {
		ro, rc := rank(old.Cells, i), rank(cur.Cells, j)
		switch {
		case ro < rc && old.Cells[i].Tuple < n: // left
			p.dirty[old.Cells[i].Tuple] = true
		case rc < ro: // entered
			p.dirty[cur.Cells[j].Tuple] = true
		case ro == rc && !slices.Equal(old.Candidates[i], cur.Candidates[j]):
			p.dirty[cur.Cells[j].Tuple] = true
		}
		if ro <= rc {
			i++
		}
		if rc <= ro {
			j++
		}
	}
}

// propagateJoins marks as dirty every tuple whose grounded counterpart
// set may have changed: for each constraint σ and each source tuple m
// whose delta touches an attribute σ references, the tuples whose
// candidate labels intersect m's old or new initial values on σ's
// equality-join attributes are one join hop from the delta and
// re-execute. Relaxed features read counterparts at their initial values,
// so a source's candidate set and noisy mask never reach another tuple's
// features. Constraints that reference none of a source's changed
// attributes see exactly the same counterpart contributions as before and
// propagate nothing.
func (p *pass) propagateJoins() {
	ds, n, prevN := p.ds, p.ds.NumTuples(), p.prev.n

	// srcValues gathers the old and new initial values tuple m exposes on
	// attr.
	srcValues := func(m, attr int) []dataset.Value {
		var out []dataset.Value
		if m < prevN {
			if v := p.oldRow(m)[attr]; v != dataset.Null {
				out = append(out, v)
			}
		}
		if m < n {
			if v := ds.Get(m, attr); v != dataset.Null {
				out = append(out, v)
			}
		}
		return out
	}
	mark := func(attr int, vals []dataset.Value) {
		if len(vals) == 0 {
			return
		}
		buckets := p.shared.Candidates(attr)
		for _, v := range vals {
			for _, t := range buckets.Of(v) {
				p.dirty[int(t)] = true
			}
		}
	}
	for _, b := range p.prep.Bounds {
		if b.TupleVars != 2 {
			continue
		}
		for m, attrs := range p.changed {
			if !slices.ContainsFunc(attrs, func(a int) bool { return b.References(-1, a) }) {
				continue
			}
			for _, j := range b.Joins {
				mark(j[0], srcValues(m, j[1]))
				mark(j[1], srcValues(m, j[0]))
			}
		}
	}
}
