// Package gibbs implements the inference engine HoloClean runs over its
// grounded factor graph (Section 2.2): marginal estimation and MAP
// extraction, with one rule per graph shape. The relaxed models of Section
// 5.2 leave every query variable independent, so its posterior is the
// softmax of its local scores and Run returns that closed form; only
// graphs with query-side correlations are sampled — single-site Gibbs with
// burn-in, on the chromatic schedule of Config.Colors.
package gibbs

import (
	"sync"

	"holoclean/internal/factor"
)

// Config controls the sampler. Every field but Scratch applies to graphs
// with query-side correlations only: an independent-variable graph is
// solved in closed form, with no sweeps and no randomness.
type Config struct {
	// BurnIn is the number of full sweeps discarded before collecting
	// marginal statistics.
	BurnIn int
	// Samples is the number of sweeps whose states are accumulated into
	// the marginal estimates. A graph that is sampled needs at least one:
	// Run panics on Samples <= 0 rather than divide the empty counts.
	Samples int
	// Seed makes runs reproducible: without VarSeed, variable v's stream
	// is seeded Seed + v·1000003.
	Seed int64
	// Parallel has no effect.
	//
	// Deprecated: independent query variables, the only regime it applied
	// to, are no longer sampled.
	Parallel bool
	// VarSeed, when non-nil, supplies the per-variable stream seed (len ==
	// number of variables) in place of the Seed-derived one. The sharded
	// pipeline uses it to seed each variable's stream by its global
	// identity rather than its index in the shard-local graph.
	VarSeed []int64
	// Colors is the chromatic sweep schedule: each entry is one color class
	// — query variables that share no n-ary factor — and every sweep
	// samples the classes in order, each class across IntraWorkers
	// goroutines. Within a class the conditionals are mutually independent
	// given the other classes, so the parallel class sweep is a valid
	// single-site Gibbs schedule. Every variable draws from its own
	// counter-based stream seeded by Seed/VarSeed, so the result is
	// bit-identical for every IntraWorkers value, including 1. Colors must
	// cover exactly the query variables of the graph; nil means one class
	// per query variable, in index order — the trivially valid coloring.
	Colors [][]int32
	// IntraWorkers bounds the goroutines sampling one color class. Values
	// <= 1 sweep sequentially — the reference schedule parallel runs must
	// reproduce bit for bit.
	IntraWorkers int
	// Scratch, when non-nil, supplies every working buffer of the run —
	// marginal arenas, score buffers, stream state — so a warmed
	// scratch makes steady-state runs allocation-free. The
	// returned Marginals borrow the scratch's arenas and stay valid only
	// until the scratch's next Run; callers must extract what they need
	// before reusing or releasing it. Nil allocates fresh buffers, the
	// original behavior. Scratch or not, results are bit-identical.
	Scratch *Scratch
}

// Scratch is the reusable working memory of one run: a flat marginal
// arena with per-variable views, the same again for the sweep-invariant
// static scores, the dense current-label array, score buffers (one per
// chromatic worker), and per-variable stream state. The sharded pipeline
// pools scratches across its worker pool and across Session recleans via
// AcquireScratch/ReleaseScratch, so steady-state serving recleans approach
// zero inference allocations. Nothing in a scratch outlives a Run as
// state: every member is rebuilt from the graph and its weights at the
// next one.
type Scratch struct {
	counts  []float64   // flat arena backing all marginals
	p       [][]float64 // per-variable views into counts
	statics []float64   // flat arena of static scores, laid out like counts
	static  [][]float64 // per-variable views into statics
	cur     []int32     // cur[v] == Domain[Assign] of v, kept in step with Assign
	buf     []float64
	wbuf    [][]float64 // per-worker score buffers (parallel chromatic classes)
	query   []int32
	pstate  []uint64 // per-variable splitmix64 states
	m       factor.Marginals
}

// views resizes arena for g (one float64 per variable per domain value),
// zeroes it, and rebuilds the per-variable views over it.
func views(g *factor.Graph, arena []float64, v [][]float64) ([]float64, [][]float64) {
	total := 0
	for i := range g.Vars {
		total += len(g.Vars[i].Domain)
	}
	arena = grow(arena, total)
	clear(arena)
	v = grow(v, len(g.Vars))
	off := 0
	for i := range g.Vars {
		d := len(g.Vars[i].Domain)
		v[i] = arena[off : off+d : off+d]
		off += d
	}
	return arena, v
}

// marginals readies the zeroed marginal arena for g.
func (s *Scratch) marginals(g *factor.Graph) [][]float64 {
	s.counts, s.p = views(g, s.counts, s.p)
	return s.p
}

// grow returns b resized to n, reusing capacity when possible. The
// contents are unspecified: callers overwrite or clear them.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// scratchPool backs AcquireScratch/ReleaseScratch. A process-wide pool
// (rather than per-runner) means the worker pools of concurrent cleaning
// jobs and successive Session recleans all share warmed arenas.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch returns a pooled scratch, possibly warm from an earlier
// run.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a scratch to the pool. The caller must be done
// with any Marginals borrowed from it.
func ReleaseScratch(s *Scratch) { scratchPool.Put(s) }

// Run returns the marginals of g's query variables by the rule its shape
// calls for: the closed form when no n-ary factor touches a query variable
// (bit-identical to Exact, whatever the sampling budget and seed), chromatic
// Gibbs sampling otherwise, which needs cfg.Samples > 0. Evidence variables
// stay clamped at their observed values and have point-mass marginals.
func Run(g *factor.Graph, cfg Config) *factor.Marginals {
	g.Freeze()
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	if !g.HasNaryOnQuery() {
		return closedForm(g, sc)
	}
	if cfg.Samples <= 0 {
		panic("gibbs: Run on a graph with query-side correlations needs Samples > 0")
	}
	return runChromatic(g, cfg, sc)
}

// splitmix64 advances a per-variable PRNG state and returns the next
// 64-bit output (Steele, Lea & Flood's SplitMix64). Eight bytes of state
// per variable is what makes per-variable streams affordable at 10⁶
// variables — a math/rand source is ~5KB — and the stream depends only on
// the variable's own seed and draw count, never on which goroutine
// executes the draw, which is the whole determinism argument of the
// chromatic schedule.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitFloat draws a uniform float64 in [0, 1) from the state.
func splitFloat(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}

// splitIntn draws a uniform-enough int in [0, n) from the state. Domain
// sizes are tiny relative to 2^64, so modulo bias is negligible.
func splitIntn(state *uint64, n int) int {
	return int(splitmix64(state) % uint64(n))
}

// sampleSoftmaxState draws an index proportionally to exp(scores) from a
// splitmix64 stream, overwriting scores with the exponentials it sums and
// then walks. When every score is -Inf the softmax is degenerate; the draw
// falls back to uniform instead of propagating NaN weights.
func sampleSoftmaxState(state *uint64, scores []float64) int {
	z, ok := factor.ExpScores(scores, scores)
	if !ok {
		return splitIntn(state, len(scores))
	}
	u := splitFloat(state) * z
	var acc float64
	for i, e := range scores {
		acc += e
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}

// runChromatic executes the color-scheduled sweeps of Config.Colors: every
// sweep visits the classes in order and samples each class's variables —
// sequentially when IntraWorkers <= 1, otherwise in contiguous chunks
// across an IntraWorkers-goroutine pool. Without colors every query
// variable is its own class, visited in index order. Correctness of the
// parallel class sweep: variables in one class share no n-ary factor, so
// each visit reads only labels frozen since the previous class boundary.
//
// What a visit does not recompute: a variable's unary and soft scores
// depend on weights alone, so they are filled once per run into the
// scratch's static arena (per run, not per Freeze — weights stay mutable on
// a frozen graph) and each visit starts from a copy; labels are read from
// the dense cur array, written wherever Assign is; and a single-candidate
// variable is not visited at all — its draw is index 0 whatever its scores
// and comes from its private stream, so nothing observes the skipped draw,
// and its marginal is Samples/Samples. It keeps its place in the coloring
// and in its neighbors' factors, which read its one label from cur.
//
// Determinism: each variable draws from a private splitmix64 stream
// advanced exactly once per sweep, so the draw sequence depends only on
// the variable's seed — results are bit-identical for any IntraWorkers
// value.
func runChromatic(g *factor.Graph, cfg Config, sc *Scratch) *factor.Marginals {
	n := float64(cfg.Samples)
	counts := sc.marginals(g)
	sc.statics, sc.static = views(g, sc.statics, sc.static)
	sc.cur = grow(sc.cur, len(g.Vars))
	sc.pstate = grow(sc.pstate, len(g.Vars))
	query := sc.query[:0]
	maxDom := 1
	// Seed every variable's stream by its identity, then draw initial
	// assignments from the streams so initialization is as
	// schedule-independent as the sweeps.
	for i := range g.Vars {
		v := int32(i)
		vr := &g.Vars[i]
		if vr.Evidence {
			vr.Assign = vr.Obs
			sc.cur[i] = vr.Domain[vr.Obs]
			continue
		}
		query = append(query, v)
		seed := cfg.Seed + int64(v)*1_000_003
		if cfg.VarSeed != nil {
			seed = cfg.VarSeed[v]
		}
		sc.pstate[v] = uint64(seed)
		if vr.Obs >= 0 {
			vr.Assign = vr.Obs
		} else {
			vr.Assign = int32(splitIntn(&sc.pstate[v], len(vr.Domain)))
		}
		sc.cur[i] = vr.Domain[vr.Assign]
		if len(vr.Domain) < 2 {
			counts[v][0] = n
			continue
		}
		g.StaticScores(v, sc.static[v])
		if len(vr.Domain) > maxDom {
			maxDom = len(vr.Domain)
		}
	}
	sc.query = query

	workers := cfg.IntraWorkers
	if workers > len(query) {
		workers = len(query)
	}
	if workers < 1 {
		workers = 1
	}
	sc.buf = grow(sc.buf, maxDom)
	if workers > 1 {
		sc.wbuf = grow(sc.wbuf, workers)
		for w := range sc.wbuf {
			sc.wbuf[w] = grow(sc.wbuf[w], maxDom)
		}
	}

	sweeps := cfg.BurnIn + cfg.Samples
	for sweep := 0; sweep < sweeps; sweep++ {
		collect := sweep >= cfg.BurnIn
		if len(cfg.Colors) == 0 {
			for _, v := range query {
				chromaticSampleVar(g, sc, v, sc.buf, collect)
			}
			continue
		}
		for _, class := range cfg.Colors {
			if workers <= 1 || len(class) < 2*workers {
				for _, v := range class {
					chromaticSampleVar(g, sc, v, sc.buf, collect)
				}
				continue
			}
			chromaticClassParallel(g, sc, class, workers, collect)
		}
	}

	m := &sc.m
	m.P = counts
	for _, v := range query {
		for d := range m.P[v] {
			m.P[v][d] /= n
		}
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			m.P[i][g.Vars[i].Obs] = 1
		}
	}
	return m
}

// chromaticClassParallel samples one color class in contiguous chunks
// across workers goroutines. It lives outside runChromatic so the
// WaitGroup and goroutine closures never force heap allocations onto the
// sequential (IntraWorkers <= 1) path, which the zero-alloc warmed-sweep
// guarantee covers.
func chromaticClassParallel(g *factor.Graph, sc *Scratch, class []int32, workers int, collect bool) {
	var wg sync.WaitGroup
	chunk := (len(class) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(class))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(buf []float64, part []int32) {
			defer wg.Done()
			for _, v := range part {
				chromaticSampleVar(g, sc, v, buf, collect)
			}
		}(sc.wbuf[w], class[lo:hi])
	}
	wg.Wait()
}

// chromaticSampleVar draws variable v's next state from its private
// splitmix64 stream into the caller-owned score buffer; collect
// accumulates the draw into the marginal counts. Rows of distinct
// variables never alias — in the counts, in cur, in the stream states — and
// a class only reads the labels of other classes, so concurrent visits
// within a color class are race-free. Top-level (not a closure) so the
// warmed sequential path stays allocation-free.
func chromaticSampleVar(g *factor.Graph, sc *Scratch, v int32, buf []float64, collect bool) {
	static := sc.static[v]
	if len(static) < 2 {
		return
	}
	scores := buf[:len(static)]
	copy(scores, static)
	g.AddNaryScores(v, sc.cur, scores)
	d := sampleSoftmaxState(&sc.pstate[v], scores)
	vr := &g.Vars[v]
	vr.Assign = int32(d)
	sc.cur[v] = vr.Domain[d]
	if collect {
		sc.p[v][d]++
	}
}

// Exact computes marginals in closed form for graphs whose query variables
// are independent given the evidence (no n-ary factor touches a query
// variable): each variable's posterior is the softmax of its local scores.
// It panics if the graph has query-side correlations.
func Exact(g *factor.Graph) *factor.Marginals {
	g.Freeze()
	if g.HasNaryOnQuery() {
		panic("gibbs: Exact requires an independent-variable graph (Section 5.2 relaxation)")
	}
	return closedForm(g, new(Scratch))
}

// closedForm writes every query variable's softmax posterior into sc's
// arena and leaves the variable assigned to its MAP label.
func closedForm(g *factor.Graph, sc *Scratch) *factor.Marginals {
	m := &sc.m
	m.P = sc.marginals(g)
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			m.P[i][v.Obs] = 1
			continue
		}
		g.LocalScores(int32(i), m.P[i])
		factor.Softmax(m.P[i], m.P[i])
		best, _ := m.MAP(int32(i))
		v.Assign = int32(best)
	}
	return m
}
