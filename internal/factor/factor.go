// Package factor implements the factor-graph substrate HoloClean delegates
// to DeepDive/DimmWitted in the paper (Section 3.2). A factor graph is a
// hypergraph (T, F, θ): T are categorical random variables, F are factors
// (hyperedges) whose functions h map an assignment of their variables to
// {−1, +1}, and θ are real-valued weights, possibly tied across many
// factors. The joint distribution is
//
//	P(T) = 1/Z · exp( Σ_{φ∈F} θ_φ · h_φ(φ) )       (Equation 1)
//
// Variables are split into evidence variables E (fixed to their observed
// value; clean cells) and query variables Q (values to infer; noisy
// cells). Two factor shapes cover all of HoloClean's compiled signals:
//
//   - Unary indicator factors: h = +1 iff the variable takes a specific
//     target value (quantitative-statistics features, source features,
//     external-dictionary matches, minimality priors, and the relaxed
//     denial-constraint features of Section 5.2, which use negated heads).
//
//   - N-ary denial-constraint factors (Algorithm 1): h = +1 iff the
//     grounded constraint is satisfied, i.e. NOT all of its predicates
//     hold simultaneously.
//
// Variables carry dense int32 labels; the meaning of labels (interned
// dataset values) belongs to the compiler. Non-equality predicate
// operators are delegated to a caller-supplied label comparator.
package factor

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Op codes for n-ary factor predicates. They mirror dc.Op but live here so
// the factor substrate does not depend on the constraint language.
const (
	OpEq uint8 = iota
	OpNeq
	OpLt
	OpGt
	OpLeq
	OpGeq
	OpSim
)

// Variable is a categorical random variable.
type Variable struct {
	// Domain lists the labels the variable may take; Assign and Obs are
	// indices into it.
	Domain []int32
	// Evidence marks the variable as fixed to Domain[Obs].
	Evidence bool
	// Obs is the observed value's domain index (evidence variables), or
	// the initial value's index for query variables (-1 when the initial
	// value is not a candidate).
	Obs int32
	// Assign is the current assignment maintained by samplers.
	Assign int32
}

// Unary is an indicator factor on one variable:
// h = +1 if Assign == Target else −1. Neg flips the indicator
// (h = −1 if Assign == Target else +1), which grounds the negated heads
// of relaxed denial constraints (Example 6). Count is the grounding
// multiplicity: k identical groundings are stored once and contribute
// k·θ·h, exactly as k separate factors would.
type Unary struct {
	Var    int32
	Target int32 // domain index
	Weight int32
	Count  int32
	Neg    bool
}

// Soft is a real-valued unary factor: it contributes θ·H[d] when its
// variable takes domain index d. HoloClean grounds one per variable to
// carry the co-occurrence probability statistic Pr[d | sibling values],
// with the weight tied per attribute — the real-valued featurization the
// original system's statistics featurizer uses, which generalizes across
// values that never appear among the evidence cells.
type Soft struct {
	Var    int32
	Weight int32
	H      []float64 // len == len(Domain)
}

// Pred is one predicate of an n-ary factor, over factor slots. Slots index
// into the factor's variables (Graph.NaryVars). A negative RightSlot means the right side is the
// constant label RightConst (already folded by the grounder).
type Pred struct {
	LeftSlot   int32
	RightSlot  int32
	RightConst int32
	Op         uint8
}

// Nary is a grounded denial-constraint factor: h = −1 when every predicate
// holds under the current assignment (the constraint is violated), +1
// otherwise. Its variables and predicates live in the graph's flat arenas;
// Graph.NaryVars and Graph.NaryPreds return them.
type Nary struct {
	Weight  int32
	varOff  int32
	nVars   int32
	predOff int32
	nPreds  int32
}

// KeyInterner is a canonical store for tying-key strings, shared across
// the weight stores of many graphs (the per-shard graphs of one pipeline
// run, or every reclean of a session). Grounding builds keys into reusable
// byte buffers; the interner hands back one canonical string per distinct
// key, so a key's string is allocated once per interner lifetime no matter
// how many factors or graphs reference it. Safe for concurrent use.
type KeyInterner struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewKeyInterner returns an empty interner.
func NewKeyInterner() *KeyInterner {
	return &KeyInterner{m: make(map[string]string)}
}

// Intern returns the canonical string for key, allocating only on the
// first sighting of a distinct key.
func (ki *KeyInterner) Intern(key []byte) string {
	ki.mu.RLock()
	s, ok := ki.m[string(key)] // no-alloc map lookup
	ki.mu.RUnlock()
	if ok {
		return s
	}
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if s, ok := ki.m[string(key)]; ok {
		return s
	}
	s = string(key)
	ki.m[s] = s
	return s
}

// Len reports the number of distinct interned keys.
func (ki *KeyInterner) Len() int {
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	return len(ki.m)
}

// Weights is the tied-weight store. Keys identify parameter-tying groups,
// e.g. "feat|City|Chicago|Zip=60608" or "dict|zipdb". Fixed weights are
// priors excluded from learning.
type Weights struct {
	W     []float64
	Fixed []bool
	Keys  []string
	ids   map[string]int32
	// Interner, when non-nil, supplies canonical strings for keys first
	// registered through IDBytes, so distinct graphs sharing one interner
	// also share one string per key.
	Interner *KeyInterner
}

// NewWeights returns an empty weight store.
func NewWeights() *Weights {
	return &Weights{ids: make(map[string]int32)}
}

// ID returns the weight id for key, creating it with the given initial
// value and fixedness on first use.
func (w *Weights) ID(key string, init float64, fixed bool) int32 {
	if id, ok := w.ids[key]; ok {
		return id
	}
	return w.add(key, init, fixed)
}

// IDBytes is ID for keys built in reusable byte buffers: the hot
// grounding loops call it once per factor, and a warm lookup (the key is
// already registered) performs zero allocations. A miss materializes the
// key through the interner when one is attached, so even first sightings
// allocate at most one string per distinct key per interner lifetime.
func (w *Weights) IDBytes(key []byte, init float64, fixed bool) int32 {
	if id, ok := w.ids[string(key)]; ok { // no-alloc map lookup
		return id
	}
	var ks string
	if w.Interner != nil {
		ks = w.Interner.Intern(key)
	} else {
		ks = string(key)
	}
	return w.add(ks, init, fixed)
}

func (w *Weights) add(key string, init float64, fixed bool) int32 {
	id := int32(len(w.W))
	w.W = append(w.W, init)
	w.Fixed = append(w.Fixed, fixed)
	w.Keys = append(w.Keys, key)
	w.ids[key] = id
	return id
}

// Len returns the number of distinct weights.
func (w *Weights) Len() int { return len(w.W) }

// adjacency is a CSR (compressed sparse row) index: the incident factor
// ids of variable v are idx[off[v]:off[v+1]]. One backing slice replaces
// the per-variable []int32 allocations of the naive representation.
type adjacency struct {
	off []int32
	idx []int32
}

// of returns variable v's row.
func (a *adjacency) of(v int32) []int32 { return a.idx[a.off[v]:a.off[v+1]] }

// build fills the CSR from a stream of (variable, factor-id) incidences
// delivered by visit. visit must deliver the same sequence both times it
// is called. A graph freezes exactly once, so the arrays are built
// fresh — two allocations total, regardless of variable count.
func (a *adjacency) build(nVars int, visit func(emit func(v int32, f int32))) {
	a.off = make([]int32, nVars+1)
	total := int32(0)
	visit(func(v, f int32) { a.off[v+1]++; total++ })
	for v := 0; v < nVars; v++ {
		a.off[v+1] += a.off[v]
	}
	a.idx = make([]int32, total)
	// Second pass: place each incidence at its row cursor. a.off is
	// restored to row starts afterwards by shifting back.
	cursor := a.off
	visit(func(v, f int32) { a.idx[cursor[v]] = f; cursor[v]++ })
	for v := nVars; v > 0; v-- {
		a.off[v] = a.off[v-1]
	}
	a.off[0] = 0
}

// Graph is a factor graph under construction or frozen for inference.
// Per-variable domains and the frozen factor adjacency live in flat
// arenas (one backing slice each) rather than per-variable allocations —
// the compact DimmWitted-style layout Section 3.2 assumes.
type Graph struct {
	Vars    []Variable
	Unaries []Unary
	Softs   []Soft
	Naries  []Nary
	Weights *Weights

	// Cmp evaluates non-equality predicate operators over labels. It may
	// be nil when all predicates are OpEq/OpNeq.
	Cmp func(op uint8, a, b int32) bool

	frozen    bool
	domArena  []int32   // backing storage for Variable.Domain slices
	naryVars  []int32   // backing storage for every n-ary factor's variables
	naryPreds []Pred    // backing storage for every n-ary factor's predicates
	varUnary  adjacency // variable → incident unary factor indices
	varSoft   adjacency // variable → incident soft factor indices
	varNary   adjacency // variable → incident n-ary factor indices
	narySlot  []int32   // parallel to varNary.idx: the row variable's slot in that factor
}

// NewGraph returns an empty graph with a fresh weight store.
func NewGraph() *Graph {
	return &Graph{Weights: NewWeights()}
}

// AddVariable appends a variable and returns its id. Evidence variables
// must pass the observed domain index; query variables pass the initial
// value's index or -1. The domain labels are copied into the graph's flat
// domain arena, so callers may reuse their slice.
func (g *Graph) AddVariable(domain []int32, evidence bool, obs int32) int32 {
	if g.frozen {
		panic("factor: AddVariable on frozen graph")
	}
	if len(domain) == 0 {
		panic("factor: variable with empty domain")
	}
	if evidence && (obs < 0 || int(obs) >= len(domain)) {
		panic(fmt.Sprintf("factor: evidence variable with out-of-domain observation %d", obs))
	}
	assign := obs
	if assign < 0 {
		assign = 0
	}
	start := len(g.domArena)
	g.domArena = append(g.domArena, domain...)
	dom := g.domArena[start:len(g.domArena):len(g.domArena)]
	g.Vars = append(g.Vars, Variable{Domain: dom, Evidence: evidence, Obs: obs, Assign: assign})
	return int32(len(g.Vars) - 1)
}

// AddUnary appends a unary indicator factor with multiplicity count.
func (g *Graph) AddUnary(v, target, weight int32, neg bool, count int32) {
	if g.frozen {
		panic("factor: AddUnary on frozen graph")
	}
	if count < 1 {
		count = 1
	}
	g.Unaries = append(g.Unaries, Unary{Var: v, Target: target, Weight: weight, Neg: neg, Count: count})
}

// AddNary appends a grounded denial-constraint factor. vars and preds are
// copied into the graph's flat arenas, so callers may reuse their slices.
func (g *Graph) AddNary(vars []int32, preds []Pred, weight int32) {
	if g.frozen {
		panic("factor: AddNary on frozen graph")
	}
	if len(vars) == 0 {
		panic("factor: n-ary factor without variables")
	}
	g.Naries = append(grow(g.Naries, 1), Nary{
		Weight: weight,
		varOff: int32(len(g.naryVars)), nVars: int32(len(vars)),
		predOff: int32(len(g.naryPreds)), nPreds: int32(len(preds)),
	})
	g.naryVars = append(grow(g.naryVars, len(vars)), vars...)
	g.naryPreds = append(grow(g.naryPreds, len(preds)), preds...)
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it must reallocate. append regrows a large slice by a
// quarter, which over one grounding copies — and discards — the n-ary
// arenas about five times their final size; doubling makes that twice.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// NaryVars returns the variables of f, indexed by slot. The slice aliases
// the graph's arena and must not be modified.
func (g *Graph) NaryVars(f *Nary) []int32 { return g.naryVars[f.varOff : f.varOff+f.nVars] }

// NaryPreds returns the predicates of f. The slice aliases the graph's
// arena and must not be modified.
func (g *Graph) NaryPreds(f *Nary) []Pred { return g.naryPreds[f.predOff : f.predOff+f.nPreds] }

// AddSoft appends a real-valued unary factor. h must have one entry per
// domain value of v.
func (g *Graph) AddSoft(v, weight int32, h []float64) {
	if g.frozen {
		panic("factor: AddSoft on frozen graph")
	}
	if len(h) != len(g.Vars[v].Domain) {
		panic("factor: AddSoft h length mismatch")
	}
	g.Softs = append(g.Softs, Soft{Var: v, Weight: weight, H: h})
}

// NumFactors returns the total factor count, the quantity the grounding
// optimizations of Section 5.1 shrink.
func (g *Graph) NumFactors() int { return len(g.Unaries) + len(g.Softs) + len(g.Naries) }

// Freeze builds the CSR adjacency indexes; the graph structure becomes
// immutable (weights and assignments stay mutable). Each adjacency is two
// flat arrays (row offsets plus one backing index slice) instead of a
// per-variable slice-of-slices, so freezing a graph costs O(1)
// allocations regardless of variable count. Structure being immutable from
// here on, the slot each variable occupies in each of its n-ary factors is
// resolved once, into narySlot.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	n := len(g.Vars)
	g.varUnary.build(n, func(emit func(v, f int32)) {
		for i := range g.Unaries {
			emit(g.Unaries[i].Var, int32(i))
		}
	})
	g.varSoft.build(n, func(emit func(v, f int32)) {
		for i := range g.Softs {
			emit(g.Softs[i].Var, int32(i))
		}
	})
	g.varNary.build(n, func(emit func(v, f int32)) {
		for i := range g.Naries {
			for _, v := range g.NaryVars(&g.Naries[i]) {
				emit(v, int32(i))
			}
		}
	})
	g.narySlot = make([]int32, len(g.varNary.idx))
	for v := int32(0); int(v) < n; v++ {
		for k := g.varNary.off[v]; k < g.varNary.off[v+1]; k++ {
			g.narySlot[k] = int32(slices.Index(g.NaryVars(&g.Naries[g.varNary.idx[k]]), v))
		}
	}
	g.frozen = true
}

// IncidentUnaries returns the unary factor indices touching variable v.
// The graph must be frozen.
func (g *Graph) IncidentUnaries(v int32) []int32 { return g.varUnary.of(v) }

// IncidentSofts returns the soft factor indices touching variable v.
// The graph must be frozen.
func (g *Graph) IncidentSofts(v int32) []int32 { return g.varSoft.of(v) }

// IncidentNaries returns the n-ary factor indices touching variable v.
// The graph must be frozen.
func (g *Graph) IncidentNaries(v int32) []int32 { return g.varNary.of(v) }

// NumVars returns the number of variables in the graph.
func (g *Graph) NumVars() int { return len(g.Vars) }

// IsEvidence reports whether variable v is clamped evidence.
func (g *Graph) IsEvidence(v int32) bool { return g.Vars[v].Evidence }

// VisitQueryNeighbors calls visit for every query variable that shares an
// n-ary factor with v, walking v's CSR adjacency row. A neighbor reached
// through several factors is visited once per factor; callers that need a
// set (e.g. greedy coloring) deduplicate with their own marker. The graph
// must be frozen.
func (g *Graph) VisitQueryNeighbors(v int32, visit func(u int32)) {
	for _, ni := range g.varNary.of(v) {
		for _, u := range g.NaryVars(&g.Naries[ni]) {
			if u != v && !g.Vars[u].Evidence {
				visit(u)
			}
		}
	}
}

// label returns the label variable u currently takes: cur[u] when the
// caller maintains a dense label array (the sampler does, see
// AddNaryScores), Domain[Assign] otherwise.
func (g *Graph) label(cur []int32, u int32) int32 {
	if cur != nil {
		return cur[u]
	}
	vr := &g.Vars[u]
	return vr.Domain[vr.Assign]
}

// holds evaluates one predicate operator over two labels.
func (g *Graph) holds(op uint8, left, right int32) bool {
	switch op {
	case OpEq:
		return left == right
	case OpNeq:
		return left != right
	}
	if g.Cmp == nil {
		panic("factor: non-equality predicate without a Cmp comparator")
	}
	return g.Cmp(op, left, right)
}

// addNary is the one evaluation routine of n-ary factors: it adds w·h_f to
// buf[d] for every d, h_f being f's value (+1 satisfied / −1 violated)
// with slot taking dom[d] and every other slot its current label (see
// label for cur). A predicate that does not mention slot holds or fails
// for all candidates alike, so those are evaluated once: when one fails f
// is satisfied whatever the candidate, and only otherwise are the
// predicates on slot evaluated per candidate. Either way buf[d] receives
// exactly one addition of ±w, the floating-point operation a
// candidate-by-candidate evaluation of every predicate performs.
func (g *Graph) addNary(f *Nary, slot int32, dom, cur []int32, w float64, buf []float64) {
	vars, preds := g.NaryVars(f), g.NaryPreds(f)
	onSlot := false
	for i := range preds {
		p := &preds[i]
		if p.LeftSlot == slot || p.RightSlot == slot {
			onSlot = true
			continue
		}
		right := p.RightConst
		if p.RightSlot >= 0 {
			right = g.label(cur, vars[p.RightSlot])
		}
		if !g.holds(p.Op, g.label(cur, vars[p.LeftSlot]), right) {
			for d := range buf {
				buf[d] += w
			}
			return
		}
	}
	if !onSlot {
		for d := range buf {
			buf[d] -= w
		}
		return
	}
	for d := range buf {
		h := -1.0
		for i := range preds {
			p := &preds[i]
			onLeft, onRight := p.LeftSlot == slot, p.RightSlot == slot
			if !onLeft && !onRight {
				continue
			}
			left, right := dom[d], dom[d]
			if !onLeft {
				left = g.label(cur, vars[p.LeftSlot])
			}
			if !onRight {
				right = p.RightConst
				if p.RightSlot >= 0 {
					right = g.label(cur, vars[p.RightSlot])
				}
			}
			if !g.holds(p.Op, left, right) {
				h = 1
				break
			}
		}
		buf[d] += w * h
	}
}

// NaryH fills h[d] with the factor function of v's k-th incident n-ary
// factor — IncidentNaries(v)[k] — when v takes Domain[d] and every other
// member its current label (cur as in AddNaryScores). Learning uses it for
// gradient expectations. h must have length len(Domain).
func (g *Graph) NaryH(v int32, k int, cur []int32, h []float64) {
	clear(h)
	i := g.varNary.off[v] + int32(k)
	g.addNary(&g.Naries[g.varNary.idx[i]], g.narySlot[i], g.Vars[v].Domain, cur, 1, h)
}

// StaticScores fills buf with the part of variable v's local scores that
// depends on weights alone — its unary and soft factors:
//
//	static(d) = Σ_{unary, soft φ ∋ v} θ_φ · h_φ(T_v = d)
//
// buf must have length len(Domain). No assignment is read, so a sampler
// computes it once per run rather than once per visit.
func (g *Graph) StaticScores(v int32, buf []float64) {
	if !g.frozen {
		panic("factor: StaticScores before Freeze")
	}
	if len(buf) != len(g.Vars[v].Domain) {
		panic("factor: StaticScores buffer size mismatch")
	}
	for i := range buf {
		buf[i] = 0
	}
	for _, ui := range g.varUnary.of(v) {
		u := &g.Unaries[ui]
		w := g.Weights.W[u.Weight] * float64(u.Count)
		// h = ±1 indicator: score(d) gets +w at the target and −w
		// elsewhere (signs flipped for negated heads).
		for d := range buf {
			h := -1.0
			if int32(d) == u.Target {
				h = 1.0
			}
			if u.Neg {
				h = -h
			}
			buf[d] += w * h
		}
	}
	for _, si := range g.varSoft.of(v) {
		s := &g.Softs[si]
		w := g.Weights.W[s.Weight]
		for d := range buf {
			buf[d] += w * s.H[d]
		}
	}
}

// AddNaryScores adds the assignment-dependent part of variable v's local
// scores to buf — Σ θ_φ·h_φ(… T_v = d …) over v's n-ary factors, the other
// members held at their current labels. cur, when non-nil, is a dense
// array of those labels (cur[u] == Domain[Assign] of u for every variable)
// the caller keeps in step with Assign; nil reads them through Vars. buf
// must have length len(Domain).
func (g *Graph) AddNaryScores(v int32, cur []int32, buf []float64) {
	dom := g.Vars[v].Domain
	for k := g.varNary.off[v]; k < g.varNary.off[v+1]; k++ {
		f := &g.Naries[g.varNary.idx[k]]
		g.addNary(f, g.narySlot[k], dom, cur, g.Weights.W[f.Weight], buf)
	}
}

// LocalScores fills buf with the unnormalized log-probability of variable
// v taking each of its domain values, holding all other variables at their
// current assignment:
//
//	score(d) = Σ_{φ ∋ v} θ_φ · h_φ(… T_v = d …)
//
// buf must have length len(Domain). Both the Gibbs sampler's conditional
// distribution and the pseudo-likelihood gradient are softmaxes of these
// scores; LocalScores is their definition — the static part, then the
// n-ary part on top of it.
func (g *Graph) LocalScores(v int32, buf []float64) {
	g.StaticScores(v, buf)
	g.AddNaryScores(v, nil, buf)
}

// Energy returns Σ θ·h under the current full assignment — useful for
// tests and for exact enumeration on tiny graphs.
func (g *Graph) Energy() float64 {
	e := 0.0
	for i := range g.Unaries {
		u := &g.Unaries[i]
		h := -1.0
		if g.Vars[u.Var].Assign == u.Target {
			h = 1.0
		}
		if u.Neg {
			h = -h
		}
		e += g.Weights.W[u.Weight] * h * float64(u.Count)
	}
	for i := range g.Softs {
		s := &g.Softs[i]
		e += g.Weights.W[s.Weight] * s.H[g.Vars[s.Var].Assign]
	}
	// A factor's value under the current assignment is its value with its
	// first slot hypothetically taking the label it already has.
	var lab [1]int32
	var wh [1]float64
	for i := range g.Naries {
		f := &g.Naries[i]
		lab[0] = g.label(nil, g.NaryVars(f)[0])
		wh[0] = 0
		g.addNary(f, 0, lab[:], nil, g.Weights.W[f.Weight], wh[:])
		e += wh[0]
	}
	return e
}

// HasNaryOnQuery reports whether any n-ary factor touches a query
// variable. When false the query variables are independent given the
// evidence, the regime of Section 5.2 where Gibbs mixes in O(n log n)
// and exact marginals are closed-form softmaxes.
func (g *Graph) HasNaryOnQuery() bool {
	for _, v := range g.naryVars {
		if !g.Vars[v].Evidence {
			return true
		}
	}
	return false
}

// ExpScores writes exp(scores[i] − max scores) into out, which may alias
// scores, and returns the sum. When every score is −Inf (no candidate is
// feasible; −Inf − −Inf is NaN) it reports ok == false and leaves out
// untouched, so every softmax built on it decides the degenerate case
// instead of propagating NaN.
func ExpScores(scores, out []float64) (z float64, ok bool) {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return 0, false
	}
	for i, s := range scores {
		out[i] = math.Exp(s - maxS)
		z += out[i]
	}
	return z, true
}

// Softmax turns scores into probabilities in out, which may alias scores.
// The degenerate all-−Inf input yields the uniform distribution.
func Softmax(scores, out []float64) {
	z, ok := ExpScores(scores, out)
	if !ok {
		z = float64(len(out))
		for i := range out {
			out[i] = 1
		}
	}
	for i := range out {
		out[i] /= z
	}
}

// Marginals holds per-variable posterior distributions over domain indices.
type Marginals struct {
	P [][]float64
}

// Prob returns P(T_v = Domain[d]).
func (m *Marginals) Prob(v int32, d int) float64 { return m.P[v][d] }

// MAP returns the maximum a posteriori domain index for variable v and its
// probability.
func (m *Marginals) MAP(v int32) (int, float64) {
	best, bp := 0, math.Inf(-1)
	for d, p := range m.P[v] {
		if p > bp {
			best, bp = d, p
		}
	}
	return best, bp
}

// ExactMarginals enumerates every joint assignment of the query variables
// (evidence fixed) and returns exact posteriors. It is exponential and
// guarded: the product of query-domain sizes must not exceed maxStates.
// Tests use it as the ground truth for the Gibbs sampler.
func ExactMarginals(g *Graph, maxStates int) (*Marginals, error) {
	g.Freeze()
	var query []int32
	states := 1
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			g.Vars[i].Assign = g.Vars[i].Obs
			continue
		}
		query = append(query, int32(i))
		states *= len(g.Vars[i].Domain)
		if states > maxStates {
			return nil, fmt.Errorf("factor: state space exceeds %d", maxStates)
		}
	}
	m := &Marginals{P: make([][]float64, len(g.Vars))}
	for i := range g.Vars {
		m.P[i] = make([]float64, len(g.Vars[i].Domain))
	}
	saved := make([]int32, len(query))
	for qi, v := range query {
		saved[qi] = g.Vars[v].Assign
	}
	// Accumulate exp(energy) per assignment with a running max for
	// numerical stability (two passes).
	assign := make([]int32, len(query))
	var energies []float64
	var combos [][]int32
	for {
		for qi, v := range query {
			g.Vars[v].Assign = assign[qi]
		}
		energies = append(energies, g.Energy())
		combos = append(combos, append([]int32(nil), assign...))
		// Advance odometer.
		k := 0
		for k < len(query) {
			assign[k]++
			if int(assign[k]) < len(g.Vars[query[k]].Domain) {
				break
			}
			assign[k] = 0
			k++
		}
		if k == len(query) {
			break
		}
	}
	maxE := math.Inf(-1)
	for _, e := range energies {
		if e > maxE {
			maxE = e
		}
	}
	var z float64
	for i, e := range energies {
		p := math.Exp(e - maxE)
		z += p
		for qi, v := range query {
			m.P[v][combos[i][qi]] += p
		}
	}
	for _, v := range query {
		for d := range m.P[v] {
			m.P[v][d] /= z
		}
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			m.P[i][g.Vars[i].Obs] = 1
		}
	}
	for qi, v := range query {
		g.Vars[v].Assign = saved[qi]
	}
	return m, nil
}
