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
//     external-dictionary matches and minimality priors).
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
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// h = +1 if Assign == Target else −1.
type Unary struct {
	Var    int32
	Target int32 // domain index
	Weight int32
}

// Soft is a real-valued unary factor: it contributes θ·H[d] when its
// variable takes domain index d. HoloClean grounds one per variable to
// carry the co-occurrence probability statistic Pr[d | sibling values],
// with the weight tied per attribute — the real-valued featurization the
// original system's statistics featurizer uses, which generalizes across
// values that never appear among the evidence cells. Its vector lives in
// the graph's flat soft arena; Graph.SoftH returns it.
type Soft struct {
	Var    int32
	Weight int32
	hOff   int32 // start of H in the soft arena; H has len(Domain) entries
}

// Pred is one predicate of an n-ary factor, over factor slots. Slots index
// into the factor's variables (Graph.NaryVars). A negative RightSlot means
// the right side is the constant label RightConst (already folded by the
// grounder).
type Pred struct {
	LeftSlot   int32
	RightSlot  int32
	RightConst int32
	Op         uint8
}

// Nary is a grounded denial-constraint factor: h = −1 when every predicate
// holds under the current assignment (the constraint is violated), +1
// otherwise. Its variables live in the graph's flat member arena; its
// predicates are one of the graph's interned lists, stored once however
// many factors share them. Graph.NaryVars and Graph.NaryPreds return them.
type Nary struct {
	Weight int32
	varOff int32
	nVars  int32
	list   int32 // index into Graph.lists
}

// span is a run [off, off+n) of an arena.
type span struct{ off, n int32 }

// Operands of a compiled predicate (term) that are not member positions.
const (
	candidate int32 = -1 // the candidate label of the slot being scored
	constant  int32 = -2 // the term's folded constant (right side only)
)

// term is a predicate compiled for one slot: each side is a member
// position of the factor (an index into its variables), the candidate, or
// — on the right — the constant c.
type term struct {
	left, right, c int32
	op             uint8
}

// shape is one interned predicate list compiled for one slot of the
// factors that carry it: terms[off:mid] are its context terms, which do
// not mention the slot and hold or fail for every candidate alike, and
// terms[mid:end] its slot terms, evaluated per candidate. Both groups keep
// the list's order.
type shape struct{ off, mid, end int32 }

// incidence is one entry of a variable's compiled n-ary row: the factor's
// weight id, the offset of its members in the member arena, and the shape
// of its predicates for the row variable's slot. A sweep reads a row as
// one sequential run of these.
type incidence struct{ weight, members, shape int32 }

// KeyInterner is the name table of integer tying keys: it gives each
// distinct name a tying key carries — a rule, a dictionary, a provenance
// source — a small id, once per interner lifetime, so a Tie holds the id
// and no string. One interner is shared by every graph a pass grounds (and
// by a session's successive passes), so their ties agree. Safe for
// concurrent use.
type KeyInterner struct {
	mu    sync.RWMutex
	ids   map[string]int32
	names []string
}

// NewKeyInterner returns an empty interner.
func NewKeyInterner() *KeyInterner {
	return &KeyInterner{ids: make(map[string]int32)}
}

// ID returns the id of name, registering it on first sighting.
func (ki *KeyInterner) ID(name string) int32 {
	if id, ok := ki.Lookup(name); ok {
		return id
	}
	ki.mu.Lock()
	defer ki.mu.Unlock()
	if id, ok := ki.ids[name]; ok {
		return id
	}
	id := int32(len(ki.names))
	ki.ids[name] = id
	ki.names = append(ki.names, name)
	return id
}

// Lookup returns the id of name when it is registered.
func (ki *KeyInterner) Lookup(name string) (int32, bool) {
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	id, ok := ki.ids[name]
	return id, ok
}

// Name returns the name registered under id.
func (ki *KeyInterner) Name(id int32) string {
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	return ki.names[id]
}

// Len reports the number of distinct registered names.
func (ki *KeyInterner) Len() int {
	ki.mu.RLock()
	defer ki.mu.RUnlock()
	return len(ki.names)
}

// Tie is an integer tying key: a family and up to four small-int fields
// whose meaning the family gives (the grounder's families are ddlog's; a
// name is a KeyInterner id). Factors whose ties are equal share a weight.
type Tie struct{ Family, A, B, C, D int32 }

// hash mixes every field of t into the high bits, which index a
// Weights table. It takes t by pointer, and Lookup compares field by
// field: a copied or ==-compared Tie is stored as 32-bit fields and
// reloaded as wider words, a store-forwarding stall per call.
func (t *Tie) hash() uint64 {
	h := (uint64(uint32(t.A))<<32 | uint64(uint32(t.B))) * 0x9E3779B97F4A7C15
	h ^= (uint64(uint32(t.C))<<32 | uint64(uint32(t.D))) * 0xC2B2AE3D27D4EB4F
	h ^= uint64(uint32(t.Family)) * 0x165667B19E3779F9
	return (h ^ h>>29) * 0xBF58476D1CE4E5B9
}

// Weights is the tied-weight store. Ties identify parameter-tying groups
// and each weight id has one; Key renders a weight's tie as its tying-key
// string, e.g. "ft|3|42|c7=19" or "dict|zipdb". Fixed weights are priors
// excluded from learning. The zero value is an empty store.
type Weights struct {
	W     []float64
	Fixed []bool
	Ties  []Tie
	// Decode renders a tie as its tying-key string (Key); the grounder
	// sets it.
	Decode func(Tie) string
	// slots index Ties by hash: open addressing with linear probing, at
	// most half full, a slot holding the top half of its tie's hash above
	// id+1 (0 is empty). Go's map would hash a struct key through its
	// generic path, a cost grounding pays per factor.
	slots []uint64
	shift uint8 // 64 - log2(len(slots))
}

// NewWeights returns an empty weight store.
func NewWeights() *Weights { return &Weights{} }

// Reset empties the store, keeping its storage for the next graph's
// weights.
func (w *Weights) Reset() {
	w.W, w.Fixed, w.Ties = w.W[:0], w.Fixed[:0], w.Ties[:0]
	clear(w.slots)
}

// Tie returns the weight id of tie t, creating it with the given initial
// value and fixedness on first use.
func (w *Weights) Tie(t Tie, init float64, fixed bool) int32 {
	if id, ok := w.Lookup(t); ok {
		return id
	}
	id := int32(len(w.W))
	w.W = append(w.W, init)
	w.Fixed = append(w.Fixed, fixed)
	w.Ties = append(w.Ties, t)
	if 2*len(w.Ties) > len(w.slots) {
		lg := max(4, bits.Len(uint(2*len(w.Ties)-1))) // a power of two, at least two slots per weight
		w.slots, w.shift = make([]uint64, 1<<lg), uint8(64-lg)
		for i := range w.Ties {
			w.place(int32(i))
		}
	} else {
		w.place(id)
	}
	return id
}

// place puts weight id in the first free slot of its probe sequence.
func (w *Weights) place(id int32) {
	h := w.Ties[id].hash()
	mask := uint64(len(w.slots) - 1)
	for i := h >> w.shift; ; i = (i + 1) & mask {
		if w.slots[i] == 0 {
			w.slots[i] = h&^(1<<32-1) | uint64(id+1)
			return
		}
	}
}

// Lookup returns the id of tie t when the store already holds it. It does
// not allocate.
func (w *Weights) Lookup(t Tie) (int32, bool) {
	if len(w.slots) == 0 {
		return -1, false
	}
	h := t.hash()
	mask := uint64(len(w.slots) - 1)
	for i := h >> w.shift; ; i = (i + 1) & mask {
		s := w.slots[i]
		if s == 0 {
			return -1, false
		}
		if s>>32 != h>>32 {
			continue
		}
		if id := int32(uint32(s)) - 1; w.Ties[id].A == t.A && w.Ties[id].B == t.B && w.Ties[id].C == t.C && w.Ties[id].D == t.D && w.Ties[id].Family == t.Family {
			return id, true
		}
	}
}

// Key returns the tying-key string of weight id.
func (w *Weights) Key(id int32) string { return w.Decode(w.Ties[id]) }

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
// is called. The arrays are two allocations, regardless of variable
// count, or none when a reset graph's are large enough.
func (a *adjacency) build(nVars int, visit func(emit func(v int32, f int32))) {
	a.off = resize(a.off, nVars+1)
	clear(a.off)
	total := int32(0)
	visit(func(v, f int32) { a.off[v+1]++; total++ })
	for v := 0; v < nVars; v++ {
		a.off[v+1] += a.off[v]
	}
	a.idx = resize(a.idx, int(total))
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

	frozen   bool
	domArena []int32          // backing storage for Variable.Domain slices
	naryVars []int32          // backing storage for every n-ary factor's variables
	preds    []Pred           // every distinct predicate list, once
	lists    []span           // Nary.list → its predicates in preds
	listIDs  map[string]int32 // list key → index into lists; dropped at Freeze
	listKey  []byte           // reusable buffer for list keys
	softH    []float64        // backing storage for every soft factor's H vector
	varUnary adjacency        // variable → incident unary factor indices
	varSoft  adjacency        // variable → incident soft factor indices
	varNary  adjacency        // variable → incident n-ary factor indices
	stream   []incidence      // parallel to varNary.idx: the compiled rows
	shapes   []shape          // every interned list compiled per slot
	terms    []term           // backing storage for the shapes' terms
}

// NewGraph returns an empty graph with a fresh weight store.
func NewGraph() *Graph {
	return &Graph{Weights: NewWeights()}
}

// Reset empties the graph — structure, weight store and comparator —
// keeping its storage for the next graph built in it (a pooled grounding
// arena's). Nothing read from the graph before stays valid.
func (g *Graph) Reset() {
	g.Vars, g.Unaries, g.Softs, g.Naries = g.Vars[:0], g.Unaries[:0], g.Softs[:0], g.Naries[:0]
	g.domArena, g.naryVars, g.preds, g.lists = g.domArena[:0], g.naryVars[:0], g.preds[:0], g.lists[:0]
	g.softH, g.stream, g.shapes, g.terms = g.softH[:0], g.stream[:0], g.shapes[:0], g.terms[:0]
	g.Cmp, g.frozen = nil, false
	clear(g.listIDs) // an unfrozen graph's list ids index the lists just emptied
	if g.Weights == nil {
		g.Weights = NewWeights()
	}
	g.Weights.Reset()
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]E, n)
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

// AddUnary appends a unary indicator factor.
func (g *Graph) AddUnary(v, target, weight int32) {
	if g.frozen {
		panic("factor: AddUnary on frozen graph")
	}
	g.Unaries = append(g.Unaries, Unary{Var: v, Target: target, Weight: weight})
}

// AddNary appends a grounded denial-constraint factor. vars is copied
// into the graph's member arena and preds interned — a list equal to one
// already added is stored once — so callers may reuse both slices. It
// panics on an empty variable list and on a predicate slot outside vars.
func (g *Graph) AddNary(vars []int32, preds []Pred, weight int32) {
	if g.frozen {
		panic("factor: AddNary on frozen graph")
	}
	if len(vars) == 0 {
		panic("factor: n-ary factor without variables")
	}
	n := int32(len(vars))
	for _, p := range preds {
		if p.LeftSlot < 0 || p.LeftSlot >= n || p.RightSlot >= n {
			panic(fmt.Sprintf("factor: predicate slots %d, %d outside a factor of %d variables", p.LeftSlot, p.RightSlot, n))
		}
	}
	g.Naries = append(grow(g.Naries, 1), Nary{
		Weight: weight,
		varOff: int32(len(g.naryVars)), nVars: n,
		list: g.internPreds(preds),
	})
	g.naryVars = append(grow(g.naryVars, len(vars)), vars...)
}

// internPreds returns the index of preds' list, adding a copy of it on
// first sighting. Grounding adds the factors of one constraint in a run, so
// the list added last is tried before the map.
func (g *Graph) internPreds(preds []Pred) int32 {
	if last := int32(len(g.lists) - 1); last >= 0 && slices.Equal(g.listPreds(last), preds) {
		return last
	}
	key := g.listKey[:0]
	for _, p := range preds {
		key = binary.LittleEndian.AppendUint32(key, uint32(p.LeftSlot))
		key = binary.LittleEndian.AppendUint32(key, uint32(p.RightSlot))
		key = binary.LittleEndian.AppendUint32(key, uint32(p.RightConst))
		key = append(key, p.Op)
	}
	g.listKey = key
	if id, ok := g.listIDs[string(key)]; ok { // no-alloc map lookup
		return id
	}
	if g.listIDs == nil {
		g.listIDs = make(map[string]int32)
	}
	id := int32(len(g.lists))
	g.listIDs[string(key)] = id
	g.lists = append(g.lists, span{off: int32(len(g.preds)), n: int32(len(preds))})
	g.preds = append(g.preds, preds...)
	return id
}

// listPreds returns the predicates of interned list l.
func (g *Graph) listPreds(l int32) []Pred {
	sp := g.lists[l]
	return g.preds[sp.off : sp.off+sp.n : sp.off+sp.n]
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
// arena, shared by every factor with the same list, and must not be
// modified.
func (g *Graph) NaryPreds(f *Nary) []Pred { return g.listPreds(f.list) }

// AddSoft appends a real-valued unary factor. h must have one entry per
// domain value of v; it is copied into the graph's flat soft arena, so
// callers may reuse their slice.
func (g *Graph) AddSoft(v, weight int32, h []float64) {
	if g.frozen {
		panic("factor: AddSoft on frozen graph")
	}
	if len(h) != len(g.Vars[v].Domain) {
		panic("factor: AddSoft h length mismatch")
	}
	g.Softs = append(grow(g.Softs, 1), Soft{Var: v, Weight: weight, hOff: int32(len(g.softH))})
	g.softH = append(grow(g.softH, len(h)), h...)
}

// SoftH returns the vector of soft factor s: H[d] is added, times the
// weight, to the score of its variable taking Domain[d]. The slice aliases
// the graph's arena and must not be modified.
func (g *Graph) SoftH(s *Soft) []float64 {
	return g.softH[s.hOff : s.hOff+int32(len(g.Vars[s.Var].Domain))]
}

// NumFactors returns the total factor count, the quantity the grounding
// optimizations of Section 5.1 shrink.
func (g *Graph) NumFactors() int { return len(g.Unaries) + len(g.Softs) + len(g.Naries) }

// Freeze builds the CSR adjacency indexes; the graph structure becomes
// immutable (weights and assignments stay mutable). Each adjacency is two
// flat arrays (row offsets plus one backing index slice) instead of a
// per-variable slice-of-slices, so freezing a graph costs O(1)
// allocations regardless of variable count. Structure being immutable from
// here on, the n-ary rows are compiled too (compileNary).
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
	g.compileNary()
	g.listIDs, g.listKey = nil, nil
	g.frozen = true
}

// compileNary lays the n-ary CSR rows out as one incidence stream and
// compiles every interned predicate list once for each slot of the widest
// factor that carries it: the shapes of list l are base[l] + slot. A
// variable's slot in a factor is the first one it occupies.
func (g *Graph) compileNary() {
	base := make([]int32, len(g.lists)+1)
	for i := range g.Naries {
		f := &g.Naries[i]
		base[f.list+1] = max(base[f.list+1], f.nVars)
	}
	for l := range g.lists {
		base[l+1] += base[l]
	}
	g.shapes = resize(g.shapes, int(base[len(g.lists)]))
	for l := range g.lists {
		for s := base[l]; s < base[l+1]; s++ {
			g.shapes[s] = g.compileShape(g.listPreds(int32(l)), s-base[l])
		}
	}
	g.stream = resize(g.stream, len(g.varNary.idx))
	for v := range g.Vars {
		for k := g.varNary.off[v]; k < g.varNary.off[v+1]; k++ {
			f := &g.Naries[g.varNary.idx[k]]
			slot := int32(slices.Index(g.NaryVars(f), int32(v)))
			g.stream[k] = incidence{weight: f.Weight, members: f.varOff, shape: base[f.list] + slot}
		}
	}
}

// compileShape appends preds compiled for slot to the term arena: first the
// predicates that do not mention slot, then those that do, each group in
// list order.
func (g *Graph) compileShape(preds []Pred, slot int32) shape {
	sh := shape{off: int32(len(g.terms))}
	for _, onSlot := range [2]bool{false, true} {
		if onSlot {
			sh.mid = int32(len(g.terms))
		}
		for _, p := range preds {
			onLeft, onRight := p.LeftSlot == slot, p.RightSlot == slot
			if (onLeft || onRight) != onSlot {
				continue
			}
			t := term{left: p.LeftSlot, right: p.RightSlot, c: p.RightConst, op: p.Op}
			if p.RightSlot < 0 {
				t.right = constant
			}
			if onLeft {
				t.left = candidate
			}
			if onRight {
				t.right = candidate
			}
			g.terms = append(g.terms, t)
		}
	}
	sh.end = int32(len(g.terms))
	return sh
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

// holds evaluates one predicate operator over two labels. Equality and
// inequality are decided inline; the other operators go to Cmp.
func (g *Graph) holds(op uint8, left, right int32) bool {
	if op <= OpNeq {
		return (left == right) == (op == OpEq)
	}
	return g.compare(op, left, right)
}

// compare evaluates a non-equality operator through Cmp. It stays out of
// line so that holds inlines into the evaluator.
//
//go:noinline
func (g *Graph) compare(op uint8, left, right int32) bool {
	if g.Cmp == nil {
		panic("factor: non-equality predicate without a Cmp comparator")
	}
	return g.Cmp(op, left, right)
}

// addIncidence is the one evaluation routine of n-ary factors: it adds
// w·h_f to buf[d] for every d, h_f being the value (+1 satisfied / −1
// violated) of in's factor with the row variable's slot taking dom[d] and
// every other member its current label (see label for cur). Context terms
// hold or fail for all candidates alike, so they are evaluated once: when
// one fails f is satisfied whatever the candidate, and only otherwise are
// the slot terms evaluated per candidate. Either way buf[d] receives
// exactly one addition of ±w, the floating-point operation a
// candidate-by-candidate evaluation of every predicate performs.
func (g *Graph) addIncidence(in *incidence, dom, cur []int32, w float64, buf []float64) {
	sh := g.shapes[in.shape]
	mem := g.naryVars[in.members:]
	for _, t := range g.terms[sh.off:sh.mid] {
		right := t.c
		if t.right >= 0 {
			right = g.label(cur, mem[t.right])
		}
		if !g.holds(t.op, g.label(cur, mem[t.left]), right) {
			for d := range buf {
				buf[d] += w
			}
			return
		}
	}
	onSlot := g.terms[sh.mid:sh.end]
	if len(onSlot) == 0 {
		for d := range buf {
			buf[d] -= w
		}
		return
	}
	for d := range buf {
		h := -1.0
		for i := range onSlot {
			t := &onSlot[i]
			left, right := dom[d], dom[d]
			if t.left != candidate {
				left = g.label(cur, mem[t.left])
			}
			switch {
			case t.right == constant:
				right = t.c
			case t.right != candidate:
				right = g.label(cur, mem[t.right])
			}
			if !g.holds(t.op, left, right) {
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
	g.addIncidence(&g.stream[g.varNary.off[v]+int32(k)], g.Vars[v].Domain, cur, 1, h)
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
		w := g.Weights.W[u.Weight]
		// h = ±1 indicator: score(d) gets +w at the target and −w
		// elsewhere.
		for d := range buf {
			h := -1.0
			if int32(d) == u.Target {
				h = 1.0
			}
			buf[d] += w * h
		}
	}
	for _, si := range g.varSoft.of(v) {
		s := &g.Softs[si]
		w := g.Weights.W[s.Weight]
		for d, h := range g.SoftH(s) {
			buf[d] += w * h
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
	dom, w := g.Vars[v].Domain, g.Weights.W
	row := g.stream[g.varNary.off[v]:g.varNary.off[v+1]]
	for i := range row {
		in := &row[i]
		g.addIncidence(in, dom, cur, w[in.weight], buf)
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
// tests and for exact enumeration on tiny graphs. The graph must be
// frozen.
func (g *Graph) Energy() float64 {
	if !g.frozen {
		panic("factor: Energy before Freeze")
	}
	e := 0.0
	for i := range g.Unaries {
		u := &g.Unaries[i]
		h := -1.0
		if g.Vars[u.Var].Assign == u.Target {
			h = 1.0
		}
		e += g.Weights.W[u.Weight] * h
	}
	for i := range g.Softs {
		s := &g.Softs[i]
		e += g.Weights.W[s.Weight] * g.SoftH(s)[g.Vars[s.Var].Assign]
	}
	// A factor's value under the current assignment is its value with its
	// first member hypothetically taking the label it already has: the
	// factor's incidence in that member's row, whose slot is 0.
	var lab [1]int32
	var wh [1]float64
	for i := range g.Naries {
		f := &g.Naries[i]
		v := g.NaryVars(f)[0]
		k := g.varNary.off[v] + int32(slices.Index(g.varNary.of(v), int32(i)))
		lab[0] = g.label(nil, v)
		wh[0] = 0
		g.addIncidence(&g.stream[k], lab[:], nil, g.Weights.W[f.Weight], wh[:])
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
