package ddlog

import (
	"fmt"
	"sync"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
)

// Database holds the materialized relations of Section 4.1 that rule
// grounding joins over.
type Database struct {
	// DS is the dirty dataset: the Tuple and InitValue relations.
	DS *dataset.Dataset
	// Bounds are the bound denial constraints referenced by DC rules.
	Bounds []*dc.Bound
	// Domains is the Domain relation for noisy cells (query variables),
	// produced by Algorithm 2.
	Domains *pruning.Domains
	// Evidence lists the sampled clean cells that become evidence
	// variables for learning; EvidenceDomains are their candidate sets
	// (each must contain the observed value).
	Evidence        []dataset.Cell
	EvidenceDomains [][]dataset.Value
	// Features materializes HasFeature(t,a,f) lazily: it appends the
	// features of one cell to dst, a buffer the grounder reuses from cell
	// to cell, and returns the extended slice. A feature is the tie of its
	// indicator factors with A and B left zero: grounding ties one weight
	// per (attribute, candidate label, feature) by setting them to the
	// cell's attribute and each candidate label. May be nil when no feature
	// rule exists.
	Features func(c dataset.Cell, dst []factor.Tie) []factor.Tie
	// SoftFeatures materializes real-valued features: per cell and
	// candidate-label vector, zero or more (weight tie, h vector) pairs,
	// added to buf (see SoftBuf). HoloClean uses one per cell carrying
	// co-occurrence probabilities with the weight tied per attribute. May
	// be nil.
	SoftFeatures func(c dataset.Cell, dom []int32, buf *SoftBuf)
	// DictPrior is the initial (learnable) reliability weight w(k) of
	// dictionary match factors.
	DictPrior float64
	// RelaxedDCPrior is the initial (learnable) weight of relaxed
	// denial-constraint features (Section 5.2) — the prior belief that
	// constraint violations indicate errors.
	RelaxedDCPrior float64
	// Matches is the Matched(t,a,d,k) relation.
	Matches []extdict.Match
	// GroupIndex is the dense constraint → tuple → group-id (-1 = none)
	// view of the Algorithm 3 tuple groups, built once per run with
	// BuildGroupIndex and shared read-only by every shard grounder. It
	// alone switches Algorithm 3 on: nil grounds every DC-factor pair.
	GroupIndex [][]int32
	// Shared supplies the dataset-wide indexes grounding joins through,
	// shared across the per-shard grounders of the sharded pipeline, and
	// the pass's domains, which say which cells are query variables of the
	// whole model (grounder.repairable, grounder.admits) when Domains holds
	// one shard's cells or none. With nil, Ground builds a private one over
	// DS and Domains.
	Shared *SharedIndex
	// Interner is the name table of the ties every graph grounded from
	// this database shares (all shards of a pass, and a session's
	// successive passes), so their ties agree; the featurizers' ties were
	// named through it. With nil, Ground names through a private one.
	Interner *factor.KeyInterner
	// Boundary, when positive, grounds the denial-constraint pairs admits
	// rejects instead of skipping them: the side whose query cells have no
	// variable in this graph folds to its observed values (the grounder's
	// clean-cell path) and the factor's weight is scaled by Boundary. This is
	// the boundary-factor damping of split components — a cavity-style
	// extension of the Algorithm 3 scope cut: where the cut drops a
	// cross-shard correlation entirely, damping keeps it as a weakened pull
	// toward the neighbor's observed value. Both sub-shards of a split ground
	// their side of each boundary pair, so a coefficient of 0.5 restores
	// roughly one full factor's worth of energy per cut pair. Zero keeps the
	// exact cut.
	Boundary float64
}

// Config tunes grounding.
type Config struct {
	// MaxScanCounterparts caps the counterpart tuples considered per cell
	// when a DC rule has no equality predicate to index on (0 =
	// unlimited). The cap is an approximation documented in DESIGN.md.
	MaxScanCounterparts int
	// Weights, when non-nil, are the weights the graph is grounded to
	// infer with — the broadcast of a learning pass, by tie. A learnable
	// weight is created at its value here, or at its prior when the
	// broadcast has no entry for it, and a unary or soft factor whose
	// weight is exactly 0 is not materialized: it would add ±0 to every
	// score, so StaticScores are bit-identical without it. N-ary factors are always
	// materialized (they decide colouring and whether a graph is sampled).
	// Nil grounds every factor at its prior: the graph learning fits.
	Weights *factor.Weights
	// Arena, when non-nil, supplies the grounder's scratch memory so
	// repeated groundings (per-shard, per-reclean) reuse backing arrays.
	// The returned Grounded borrows the arena's cell→variable map; see
	// Arena for the release contract.
	Arena *Arena
}

// inert reports whether v is a query variable inference cannot move: with a
// single candidate its posterior is 1 whatever its factors say (a softmax
// over one score; a Gibbs draw from one label), so the per-cell factor rules
// ground nothing for it. The variable itself stays — ids, Cells, VarOf,
// DC-factor scopes and the emitted marginal are those of a grounding that
// scored it. Evidence variables are never inert: their factors are what
// learning fits.
func (gr *grounder) inert(v int32) bool {
	vr := &gr.g.Vars[v]
	return !vr.Evidence && len(vr.Domain) < 2
}

// repairable reports whether the pass's domains give cell c at least two
// candidates: c is a query variable of the model that inference can move,
// whichever graph holds it. The weak-evidence discounts ask it of the cells
// a testimony is conditioned on — such a cell may be the error instead —
// so the answer is the same in every shard and in the learning graph.
func (gr *grounder) repairable(c dataset.Cell) bool {
	return len(gr.shared.domainOf(c)) >= 2
}

// admits reports whether tuple t may fill a constraint role that references
// attrs: every referenced cell the pass's domains make a query variable has
// a variable in this graph. Shards are tuple-aligned, so a shard admits its
// own tuples and the tuples whose query cells the role never references;
// those fold to constants, yielding the factor a monolithic grounding
// emits. A pair reaching another shard's query variable is Algorithm 3's
// cross-shard cut (or, with Database.Boundary, a damped factor). t == -1
// (single-tuple constraints) always passes.
func (gr *grounder) admits(t int, attrs []int) bool {
	if t < 0 {
		return true
	}
	for _, a := range attrs {
		c := dataset.Cell{Tuple: t, Attr: a}
		if gr.queryVarOf(c) < 0 && len(gr.shared.domainOf(c)) > 0 {
			return false
		}
	}
	return true
}

// Stats describes the grounded model. PaperFactors counts groundings the
// way Example 5 does — one factor per value combination of the involved
// random variables — while the compact in-memory representation stores
// one predicate factor per tuple pair.
type Stats struct {
	Variables    int
	QueryVars    int
	EvidenceVars int
	PaperFactors int64
}

// SoftFeature is one real-valued feature of a cell: h values per
// candidate with a weight tie. Init is the weight's starting value;
// learning adjusts it when evidence exists, but on workloads where error
// detection flags entire conflict groups (e.g. Flights) evidence is
// scarce and the prior carries the signal.
type SoftFeature struct {
	Key  factor.Tie
	H    []float64
	Init float64
}

// SoftBuf collects one cell's soft features in storage the grounder
// reuses from cell to cell, so a featurizer allocates nothing per vector:
// it takes each vector from Vec, fills it, and keeps it with Add. A vector
// stays valid until the grounder resets the buffer for the next cell;
// Graph.AddSoft copies what the graph keeps.
type SoftBuf struct {
	feats []SoftFeature
	h     []float64
}

// Vec returns a zeroed vector of n values backed by the buffer.
func (b *SoftBuf) Vec(n int) []float64 {
	if cap(b.h)-len(b.h) < n {
		// A fresh chunk: vectors already handed out keep the old one.
		b.h = make([]float64, 0, max(2*cap(b.h), n, 64))
	}
	v := b.h[len(b.h) : len(b.h)+n]
	clear(v)
	b.h = b.h[:len(b.h)+n]
	return v
}

// Add keeps h, a vector from Vec, as a feature tied by key with prior
// init.
func (b *SoftBuf) Add(key factor.Tie, h []float64, init float64) {
	b.feats = append(b.feats, SoftFeature{Key: key, H: h, Init: init})
}

// Reset empties the buffer, keeping its storage.
func (b *SoftBuf) Reset() {
	b.feats, b.h = b.feats[:0], b.h[:0]
}

// CellVars is a dense cell → variable-id map: one slot per (tuple,
// attribute) pair of the dataset. It replaces the map[dataset.Cell]int32
// the grounder's per-pair loops used to probe, turning every lookup into
// one multiply-add and two array reads. Slots are validated by an epoch
// mark rather than cleared, so resetting a pooled instance between
// shard groundings is O(1) — a per-shard memset of a tuples×attrs array
// would make grounding cost O(dataset) per shard regardless of shard
// size.
type CellVars struct {
	attrs int
	ids   []int32
	mark  []int32
	epoch int32
}

// reset resizes to tuples×attrs and invalidates every slot by bumping
// the epoch, reusing the backing arrays when their capacity suffices
// (the arena-pooling path).
func (cv *CellVars) reset(tuples, attrs int) {
	n := tuples * attrs
	cv.attrs = attrs
	if cap(cv.ids) >= n {
		cv.ids = cv.ids[:n]
		cv.mark = cv.mark[:n]
	} else {
		cv.ids = make([]int32, n)
		cv.mark = make([]int32, n)
		cv.epoch = 0
	}
	cv.epoch++
	if cv.epoch == 0 { // wrapped: stale marks may alias epoch 0
		clear(cv.mark)
		cv.epoch = 1
	}
}

// Get returns the variable id of cell c, if one exists.
func (cv *CellVars) Get(c dataset.Cell) (int32, bool) {
	i := c.Tuple*cv.attrs + c.Attr
	if cv.mark[i] != cv.epoch {
		return -1, false
	}
	return cv.ids[i], true
}

func (cv *CellVars) set(c dataset.Cell, v int32) {
	i := c.Tuple*cv.attrs + c.Attr
	cv.ids[i] = v
	cv.mark[i] = cv.epoch
}

// Grounded is the result of grounding a program: the factor graph plus
// the cell↔variable correspondence.
type Grounded struct {
	Graph *factor.Graph
	// Cells maps variable id → cell.
	Cells []dataset.Cell
	// VarOf maps cell → variable id (dense; see CellVars).
	VarOf *CellVars
	Stats Stats
}

// Arena is the reusable per-grounding scratch memory: the dense cell→var
// map, the graph, label and context-key build buffers, the featurizers'
// output buffers, the relaxed-DC candidate counters, vector and grouping
// scratch, and an epoch-marked tuple set. The sharded
// pipeline pools arenas across its worker goroutines and across Session
// recleans (AcquireArena / ReleaseArena), so a steady stream of shard
// groundings reuses the same few backing arrays. A Grounded produced with
// an arena borrows the arena's CellVars and graph: release the arena only
// after the grounded graph is no longer needed.
type Arena struct {
	cellVars  CellVars
	graph     factor.Graph
	labelBuf  []int32
	ctxKey    []byte
	feats     []factor.Tie
	soft      SoftBuf
	counts    []int32
	h         []float64
	groupKey  []byte
	groupOf   map[string]int32
	keyAttrs  []int
	restAttrs []int
	keyVals   []dataset.Value
	seenMark  []int32
	seenEpoch int32
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns a pooled grounding arena, possibly warm.
func AcquireArena() *Arena { return arenaPool.Get().(*Arena) }

// ReleaseArena returns an arena to the pool. The caller must be done with
// every Grounded that borrowed it. The arena keeps its graph's storage
// only up to pooledVars variables.
func ReleaseArena(a *Arena) {
	if a.graph.NumVars() > pooledVars {
		a.graph = factor.Graph{}
	}
	arenaPool.Put(a)
}

// pooledVars bounds the graphs whose storage a pooled arena keeps: a
// shard of independent cells (a batch of a few hundred) is rebuilt in its
// predecessor's arrays, while the graph of a giant conflict component is
// let go — kept, it would pin its size in every arena the pool holds, and
// raise the peak heap of every later pass by one giant graph.
const pooledVars = 1024

// seen reports and records whether tuple t was already seen in the
// current epoch. Epoch bumping makes clearing O(1); the mark array is
// sized to the dataset once and reused.
func (a *Arena) seen(t int) bool {
	if a.seenMark[t] == a.seenEpoch {
		return true
	}
	a.seenMark[t] = a.seenEpoch
	return false
}

// nextSeen starts a fresh seen-set epoch for a dataset of n tuples.
// Marks are cleared to 0 and epoch 0 is never used, so a stale slot can
// only collide with a live epoch after a full wrap cycle — which passes
// through 0 and re-clears the array first. (Clearing to any reachable
// epoch value, like -1, would make stale slots falsely "seen" once the
// epoch counter reached it.)
func (a *Arena) nextSeen(n int) {
	if len(a.seenMark) < n {
		a.seenMark = make([]int32, n)
		a.seenEpoch = 0
	}
	a.seenEpoch++
	if a.seenEpoch == 0 { // wrapped
		clear(a.seenMark)
		a.seenEpoch = 1
	}
}

type grounder struct {
	db     *Database
	cfg    Config
	g      *factor.Graph
	out    *Grounded
	ar     *Arena
	shared *SharedIndex        // db.Shared, or a private index when the database carries none
	names  *factor.KeyInterner // db.Interner, or a private one
	nb     naryBuild           // foldFactor's reusable output
}

// Ground evaluates every rule of the program against the database and
// returns the factor graph. When cfg.Arena is non-nil the grounder draws
// its scratch structures from it (see Arena).
func Ground(db *Database, prog *Program, cfg Config) (*Grounded, error) {
	gr := newGrounder(db, cfg)
	// The random-variable rule must ground first; factor rules reference
	// the variables it creates.
	hasRV := false
	for _, r := range prog.Rules {
		if r.Kind == RandomVariables {
			gr.groundVariables()
			hasRV = true
			break
		}
	}
	if !hasRV && len(prog.Rules) > 0 {
		return nil, fmt.Errorf("ddlog: program has factor rules but no random-variable rule")
	}
	for _, r := range prog.Rules {
		switch r.Kind {
		case RandomVariables:
			// already grounded
		case FeatureFactors:
			gr.groundFeatures()
		case MatchedFactors:
			gr.groundMatches()
		case MinimalityFactors:
			gr.groundMinimality(r.FixedWeight)
		case DCFactors:
			if err := gr.groundDC(r); err != nil {
				return nil, err
			}
		case RelaxedDCFactors:
			gr.groundRelaxedDC(r)
		default:
			return nil, fmt.Errorf("ddlog: unknown rule kind %d", r.Kind)
		}
	}
	gr.out.Stats.Variables = len(gr.g.Vars)
	return gr.out, nil
}

// newGrounder sets up the grounding of one graph over db.
func newGrounder(db *Database, cfg Config) *grounder {
	ar := cfg.Arena
	if ar == nil {
		ar = new(Arena)
	}
	ar.cellVars.reset(db.DS.NumTuples(), db.DS.NumAttrs())
	ar.graph.Reset()
	ar.nextSeen(db.DS.NumTuples())
	gr := &grounder{
		db:     db,
		cfg:    cfg,
		g:      &ar.graph,
		ar:     ar,
		shared: db.Shared,
	}
	if gr.shared == nil {
		gr.shared = NewSharedIndex(db.DS, db.Domains)
	}
	if gr.names = db.Interner; gr.names == nil {
		gr.names = factor.NewKeyInterner()
	}
	gr.g.Weights.Decode = Keys{gr.names}.String
	gr.out = &Grounded{Graph: gr.g, VarOf: &ar.cellVars}
	dict := db.DS.Dict()
	gr.g.Cmp = func(op uint8, a, b int32) bool {
		return dc.Compare(dc.Op(op), dict.String(dataset.Value(a)), dict.String(dataset.Value(b)))
	}
	return gr
}

// groundVariables creates one query variable per noisy cell and one
// evidence variable per sampled clean cell. Labels are staged in the
// arena's reusable buffer; AddVariable copies them into the graph's flat
// domain arena.
func (gr *grounder) groundVariables() {
	db := gr.db
	for i, c := range db.Domains.Cells {
		cands := db.Domains.Candidates[i]
		if len(cands) == 0 {
			continue // nothing to infer; cell keeps its value
		}
		labels := gr.ar.labelBuf[:0]
		obs := int32(-1)
		init := db.DS.Get(c.Tuple, c.Attr)
		for j, v := range cands {
			labels = append(labels, int32(v))
			if v == init && init != dataset.Null {
				obs = int32(j)
			}
		}
		gr.ar.labelBuf = labels
		v := gr.g.AddVariable(labels, false, obs)
		gr.out.VarOf.set(c, v)
		gr.out.Cells = append(gr.out.Cells, c)
		gr.out.Stats.QueryVars++
	}
	for i, c := range db.Evidence {
		if _, dup := gr.out.VarOf.Get(c); dup {
			continue // a cell cannot be both noisy and evidence
		}
		cands := db.EvidenceDomains[i]
		obsVal := db.DS.Get(c.Tuple, c.Attr)
		labels := gr.ar.labelBuf[:0]
		obs := int32(-1)
		for j, v := range cands {
			labels = append(labels, int32(v))
			if v == obsVal {
				obs = int32(j)
			}
		}
		gr.ar.labelBuf = labels
		if obs < 0 {
			continue // observed value pruned away; unusable as evidence
		}
		v := gr.g.AddVariable(labels, true, obs)
		gr.out.VarOf.set(c, v)
		gr.out.Cells = append(gr.out.Cells, c)
		gr.out.Stats.EvidenceVars++
	}
}

// groundFeatures emits Value?(t,a,d) :- HasFeature(t,a,f) with weights
// tied by (attribute, candidate value, feature), plus the real-valued
// soft features (co-occurrence probabilities) with attribute-tied weights.
func (gr *grounder) groundFeatures() {
	if gr.db.Features == nil && gr.db.SoftFeatures == nil {
		return
	}
	for vi, c := range gr.out.Cells {
		v := int32(vi)
		if gr.inert(v) {
			continue
		}
		dom := gr.g.Vars[v].Domain
		if gr.db.Features != nil {
			gr.ar.feats = gr.db.Features(c, gr.ar.feats[:0])
			for _, f := range gr.ar.feats {
				f.A = int32(c.Attr)
				for d, label := range dom {
					f.B = label
					gr.out.Stats.PaperFactors++
					if wid, ok := gr.weightFor(f, 0, false); ok {
						gr.g.AddUnary(v, int32(d), wid)
					}
				}
			}
		}
		if gr.db.SoftFeatures != nil {
			sb := &gr.ar.soft
			sb.Reset()
			gr.db.SoftFeatures(c, dom, sb)
			for _, sf := range sb.feats {
				gr.out.Stats.PaperFactors++
				if wid, ok := gr.weightFor(sf.Key, sf.Init, false); ok {
					gr.g.AddSoft(v, wid, sf.H)
				}
			}
		}
	}
}

// groundMatches emits Value?(t,a,d) :- Matched(t,a,d,k) with one
// reliability weight per dictionary. Matches conditioned on a cell that
// is itself a repairable query variable get a separate, weaker weight:
// the lookup key may be the error (a swapped zip retrieves the wrong
// city), so such suggestions must not carry the full dictionary prior.
func (gr *grounder) groundMatches() {
	for _, m := range gr.db.Matches {
		v, ok := gr.out.VarOf.Get(m.Cell)
		if !ok || gr.inert(v) {
			continue
		}
		label, ok := gr.db.DS.Dict().Lookup(m.Value)
		if !ok {
			continue
		}
		key := factor.Tie{Family: TieDict, A: gr.names.ID(m.Dict)}
		prior := gr.db.DictPrior
		for _, cc := range m.CondCells {
			if gr.repairable(cc) {
				key.B = 1
				prior /= 2
				break
			}
		}
		dom := gr.g.Vars[v].Domain
		for d, l := range dom {
			if l == int32(label) {
				if wid, ok := gr.weightFor(key, prior, false); ok {
					gr.g.AddUnary(v, int32(d), wid)
				}
				gr.out.Stats.PaperFactors++
				break
			}
		}
	}
}

// groundMinimality emits the positive prior on keeping the initial value
// for every query variable whose initial value survived pruning.
func (gr *grounder) groundMinimality(weight float64) {
	wid, keep := gr.weightFor(factor.Tie{Family: TieMinimality}, weight, true)
	for vi := range gr.out.Cells {
		v := int32(vi)
		vr := &gr.g.Vars[v]
		if vr.Evidence || vr.Obs < 0 || gr.inert(v) {
			continue
		}
		if keep {
			gr.g.AddUnary(v, vr.Obs, wid)
		}
		gr.out.Stats.PaperFactors++
	}
}

// weightFor returns the id of the weight tied by key for one unary or soft
// factor, creating the weight on first use: a learnable one at its value
// in Config.Weights when that has one, otherwise at init. ok is false when
// the factor is not to be materialized — in a graph grounded with
// Config.Weights, one whose weight is exactly 0 (see Config.Weights). A
// warm lookup does not allocate.
func (gr *grounder) weightFor(key factor.Tie, init float64, fixed bool) (id int32, ok bool) {
	w := gr.g.Weights
	if id, ok := w.Lookup(key); ok {
		return id, gr.cfg.Weights == nil || w.W[id] != 0
	}
	if b := gr.cfg.Weights; b != nil {
		if id, learned := b.Lookup(key); learned && !fixed {
			init = b.W[id]
		}
		if init == 0 {
			return -1, false
		}
	}
	return w.Tie(key, init, fixed), true
}

// queryVarOf returns the query variable of a cell, or -1 when the cell is
// clean or evidence (treated as a constant during DC grounding).
func (gr *grounder) queryVarOf(c dataset.Cell) int32 {
	if v, ok := gr.out.VarOf.Get(c); ok && !gr.g.Vars[v].Evidence {
		return v
	}
	return -1
}

// candidateLabels returns the labels cell c can take: its query-variable
// domain, or the singleton initial value.
func (gr *grounder) candidateLabels(c dataset.Cell) []int32 {
	if v := gr.queryVarOf(c); v >= 0 {
		return gr.g.Vars[v].Domain
	}
	init := gr.db.DS.Get(c.Tuple, c.Attr)
	if init == dataset.Null {
		return nil
	}
	return []int32{int32(init)}
}

// BuildGroupIndex densifies Algorithm 3 tuple groups into one
// constraint-indexed tuple → group-id table (-1 = no group). The sharded
// pipeline builds it once per run (compile.Prepare) so the K shard
// grounders share it instead of each allocating constraint × tuples
// arrays.
func BuildGroupIndex(numConstraints, numTuples int, groups []partition.Group) [][]int32 {
	idx := make([][]int32, numConstraints)
	for gi, g := range groups {
		m := idx[g.Constraint]
		if m == nil {
			m = make([]int32, numTuples)
			for i := range m {
				m[i] = -1
			}
			idx[g.Constraint] = m
		}
		for _, t := range g.Tuples {
			m[t] = int32(gi)
		}
	}
	// Constraints with no groups share one read-only all-(-1) row rather
	// than each allocating numTuples of identical sentinel.
	var empty []int32
	for ci := range idx {
		if idx[ci] == nil {
			if empty == nil {
				empty = make([]int32, numTuples)
				for i := range empty {
					empty[i] = -1
				}
			}
			idx[ci] = empty
		}
	}
	return idx
}

// sameGroup reports whether t1 and t2 share an Algorithm 3 group for
// constraint ci.
func (gr *grounder) sameGroup(ci, t1, t2 int) bool {
	m := gr.db.GroupIndex[ci]
	return m[t1] >= 0 && m[t1] == m[t2]
}
