// Package gibbs implements the approximate-inference engine HoloClean runs
// over its grounded factor graph (Section 2.2): single-site Gibbs sampling
// with burn-in, marginal estimation, and MAP extraction. For the relaxed
// models of Section 5.2 the graph has only independent query variables,
// where Gibbs is guaranteed to mix in O(n log n) steps [21, 36]; the
// sampler also exposes that closed form directly (Exact), which tests use
// to validate the sampler and callers can use as a fast path.
package gibbs

import (
	"math"
	"math/rand"
	"runtime"
	"sync"

	"holoclean/internal/factor"
)

// Config controls the sampler.
type Config struct {
	// BurnIn is the number of full sweeps discarded before collecting
	// marginal statistics.
	BurnIn int
	// Samples is the number of sweeps whose states are accumulated into
	// the marginal estimates.
	Samples int
	// Seed makes runs reproducible.
	Seed int64
	// Parallel samples independent query variables across all CPUs, the
	// way DimmWitted [41] parallelizes inference. It applies only when no
	// correlation factor touches a query variable (the Section 5.2
	// regime) — each variable's conditional then depends only on clamped
	// evidence, so per-variable chains are exact and race-free. Graphs
	// with query-side correlations fall back to sequential sweeps.
	Parallel bool
	// VarSeed, when non-nil, supplies the full per-variable chain seed for
	// the Parallel regime (len == number of variables). The sharded
	// pipeline uses it to seed each variable's chain by its global
	// identity rather than its index in the shard-local graph, so
	// per-shard inference reproduces monolithic inference bit for bit.
	// Nil falls back to Seed + v·1e6+3 per variable. Sequential sweeps
	// ignore it.
	VarSeed []int64
	// Colors, when non-nil, selects the chromatic sweep schedule for
	// graphs with query-side correlations: each entry is one color class —
	// query variables that share no n-ary factor — and every sweep samples
	// the classes in order, each class across IntraWorkers goroutines.
	// Within a class the conditionals are mutually independent given the
	// other classes, so the parallel class sweep is a valid single-site
	// Gibbs schedule. Every variable draws from its own counter-based
	// stream seeded by Seed/VarSeed, so the result is bit-identical for
	// every IntraWorkers value, including 1. The
	// chromatic schedule visits variables in class order rather than the
	// sequential sampler's shuffled order, so its draws differ from Run's
	// sequential mode — equivalence holds across worker counts, not across
	// schedules. Colors must cover exactly the query variables of the
	// graph.
	Colors [][]int32
	// IntraWorkers bounds the goroutines sampling one color class
	// (chromatic schedule only). Values <= 1 sweep sequentially — the
	// reference schedule parallel runs must reproduce bit for bit.
	IntraWorkers int
	// Scratch, when non-nil, supplies every working buffer of the run —
	// marginal-count arenas, score buffers, sweep order, RNG state — so a
	// warmed scratch makes steady-state sweeps allocation-free. The
	// returned Marginals borrow the scratch's arenas and stay valid only
	// until the scratch's next Run; callers must extract what they need
	// before reusing or releasing it. Nil allocates fresh buffers, the
	// original behavior. Scratch or not, results are bit-identical.
	Scratch *Scratch
}

// Scratch is the reusable working memory of one sampler run: a flat
// marginal-count arena with per-variable views, the score buffer, sweep
// ordering, and re-seedable RNG state (per-worker for the parallel
// regime). The sharded pipeline pools scratches across its worker pool
// and across Session recleans via AcquireScratch/ReleaseScratch, so
// steady-state serving recleans approach zero sampler allocations.
type Scratch struct {
	counts []float64   // flat arena backing all marginal counts
	p      [][]float64 // per-variable views into counts
	buf    []float64
	order  []int32
	query  []int32
	pstate []uint64 // per-variable splitmix64 states (chromatic schedule)
	m      factor.Marginals
	src    rand.Source
	rng    *rand.Rand
	wk     []workerScratch
}

// workerScratch is one parallel worker's private buffer and RNG.
type workerScratch struct {
	buf []float64
	src rand.Source
	rng *rand.Rand
}

// seededRng returns *rng re-seeded to seed, creating source and RNG on
// first use. Re-seeding an existing source produces exactly the stream
// rand.New(rand.NewSource(seed)) would, without the two per-call
// allocations.
func seededRng(src *rand.Source, rng **rand.Rand, seed int64) *rand.Rand {
	if *rng == nil {
		*src = rand.NewSource(seed)
		*rng = rand.New(*src)
	} else {
		(*src).Seed(seed)
	}
	return *rng
}

// seeded returns the worker's RNG re-seeded to seed.
func (w *workerScratch) seeded(seed int64) *rand.Rand {
	return seededRng(&w.src, &w.rng, seed)
}

// seeded returns the scratch's sequential-sweep RNG re-seeded to seed.
func (s *Scratch) seeded(seed int64) *rand.Rand {
	return seededRng(&s.src, &s.rng, seed)
}

// marginals resizes the count arena for g (one float64 per variable per
// domain value), zeroes it, and rebuilds the per-variable views.
func (s *Scratch) marginals(g *factor.Graph) [][]float64 {
	total := 0
	for i := range g.Vars {
		total += len(g.Vars[i].Domain)
	}
	if cap(s.counts) >= total {
		s.counts = s.counts[:total]
	} else {
		s.counts = make([]float64, total)
	}
	clear(s.counts)
	if cap(s.p) >= len(g.Vars) {
		s.p = s.p[:len(g.Vars)]
	} else {
		s.p = make([][]float64, len(g.Vars))
	}
	off := 0
	for i := range g.Vars {
		d := len(g.Vars[i].Domain)
		s.p[i] = s.counts[off : off+d : off+d]
		off += d
	}
	return s.p
}

// growF returns b resized to n, reusing capacity when possible.
func growF(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n)
}

// growI is growF for int32 slices.
func growI(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// growU64 is growF for uint64 slices.
func growU64(b []uint64, n int) []uint64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint64, n)
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

// DefaultConfig mirrors the modest sampling budgets DeepDive-style systems
// use once mixing is fast (Section 5.2).
func DefaultConfig() Config { return Config{BurnIn: 10, Samples: 50, Seed: 1} }

// Run performs Gibbs sampling over the query variables of g and returns
// estimated marginals. Evidence variables stay clamped at their observed
// values and have point-mass marginals.
func Run(g *factor.Graph, cfg Config) *factor.Marginals {
	g.Freeze()
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	if len(cfg.Colors) > 0 {
		return runChromatic(g, cfg, sc)
	}
	if cfg.Parallel && !g.HasNaryOnQuery() {
		return runParallel(g, cfg, sc)
	}
	rng := sc.seeded(cfg.Seed)
	query := sc.query[:0]
	maxDom := 1
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			continue
		}
		query = append(query, int32(i))
		if len(v.Domain) > maxDom {
			maxDom = len(v.Domain)
		}
		// Start at the initial observed value when it survived pruning,
		// otherwise at a random candidate.
		if v.Obs >= 0 {
			v.Assign = v.Obs
		} else {
			v.Assign = int32(rng.Intn(len(v.Domain)))
		}
	}
	sc.query = query
	counts := sc.marginals(g)
	buf := growF(sc.buf, maxDom)
	sc.buf = buf
	order := growI(sc.order, len(query))
	sc.order = order
	copy(order, query)

	sweeps := cfg.BurnIn + cfg.Samples
	for sweep := 0; sweep < sweeps; sweep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, v := range order {
			dom := len(g.Vars[v].Domain)
			scores := buf[:dom]
			g.LocalScores(v, scores)
			g.Vars[v].Assign = int32(sampleSoftmax(rng, scores))
		}
		if sweep >= cfg.BurnIn {
			for _, v := range query {
				counts[v][g.Vars[v].Assign]++
			}
		}
	}

	m := &sc.m
	m.P = counts
	n := float64(cfg.Samples)
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

// sampleSoftmaxState is sampleSoftmax over a splitmix64 stream.
func sampleSoftmaxState(state *uint64, scores []float64) int {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return splitIntn(state, len(scores))
	}
	var z float64
	for _, s := range scores {
		z += math.Exp(s - maxS)
	}
	u := splitFloat(state) * z
	var acc float64
	for i, s := range scores {
		acc += math.Exp(s - maxS)
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}

// runChromatic executes the color-scheduled sweeps of Config.Colors: every
// sweep visits the classes in order and samples each class's variables —
// sequentially when IntraWorkers <= 1, otherwise in contiguous chunks
// across an IntraWorkers-goroutine pool. Correctness of the parallel class
// sweep: variables in one class share no n-ary factor, so each LocalScores
// call reads only assignments frozen since the previous class boundary.
//
// Determinism: each variable draws from a private splitmix64 stream
// advanced exactly once per sweep, so the draw sequence depends only on
// the variable's seed — results are bit-identical for any IntraWorkers
// value.
func runChromatic(g *factor.Graph, cfg Config, sc *Scratch) *factor.Marginals {
	query := sc.query[:0]
	maxDom := 1
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			continue
		}
		query = append(query, int32(i))
		if len(v.Domain) > maxDom {
			maxDom = len(v.Domain)
		}
	}
	sc.query = query
	counts := sc.marginals(g)
	// Seed every variable's stream by its identity, then draw initial
	// assignments from the streams so initialization is as
	// schedule-independent as the sweeps.
	sc.pstate = growU64(sc.pstate, len(g.Vars))
	for _, v := range query {
		seed := cfg.Seed + int64(v)*1_000_003
		if cfg.VarSeed != nil {
			seed = cfg.VarSeed[v]
		}
		sc.pstate[v] = uint64(seed)
		vr := &g.Vars[v]
		if vr.Obs >= 0 {
			vr.Assign = vr.Obs
		} else {
			vr.Assign = int32(splitIntn(&sc.pstate[v], len(vr.Domain)))
		}
	}

	workers := cfg.IntraWorkers
	if workers > len(query) {
		workers = len(query)
	}
	if workers < 1 {
		workers = 1
	}
	if cap(sc.wk) >= workers {
		sc.wk = sc.wk[:workers]
	} else {
		sc.wk = make([]workerScratch, workers)
	}
	for w := range sc.wk {
		sc.wk[w].buf = growF(sc.wk[w].buf, maxDom)
	}
	sc.buf = growF(sc.buf, maxDom)

	sweeps := cfg.BurnIn + cfg.Samples
	for sweep := 0; sweep < sweeps; sweep++ {
		collect := sweep >= cfg.BurnIn
		for _, class := range cfg.Colors {
			if workers <= 1 || len(class) < 2*workers {
				for _, v := range class {
					chromaticSampleVar(g, sc.pstate, counts, v, sc.buf, collect)
				}
				continue
			}
			chromaticClassParallel(g, sc, counts, class, workers, collect)
		}
	}

	m := &sc.m
	m.P = counts
	n := float64(cfg.Samples)
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
func chromaticClassParallel(g *factor.Graph, sc *Scratch, counts [][]float64, class []int32, workers int, collect bool) {
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
				chromaticSampleVar(g, sc.pstate, counts, v, buf, collect)
			}
		}(sc.wk[w].buf, class[lo:hi])
	}
	wg.Wait()
}

// chromaticSampleVar draws variable v's next state from its private
// splitmix64 stream into the caller-owned score buffer; collect
// accumulates the draw into the marginal counts. Count rows of distinct
// variables never alias, so concurrent collection within a color class is
// race-free. Top-level (not a closure) so the warmed sequential path stays
// allocation-free.
func chromaticSampleVar(g *factor.Graph, pstate []uint64, counts [][]float64, v int32, buf []float64, collect bool) {
	vr := &g.Vars[v]
	scores := buf[:len(vr.Domain)]
	g.LocalScores(v, scores)
	d := sampleSoftmaxState(&pstate[v], scores)
	vr.Assign = int32(d)
	if collect {
		counts[v][d]++
	}
}

// runParallel runs per-variable chains concurrently. Only valid when no
// n-ary factor touches a query variable: every conditional is then
// independent of other query variables and each variable's chain can be
// sampled in isolation. Each variable's chain is seeded individually (a
// per-worker RNG is re-seeded per variable rather than freshly
// allocated), so results are deterministic regardless of scheduling and
// worker count.
func runParallel(g *factor.Graph, cfg Config, sc *Scratch) *factor.Marginals {
	query := sc.query[:0]
	maxDom := 1
	for i := range g.Vars {
		v := &g.Vars[i]
		if v.Evidence {
			v.Assign = v.Obs
			continue
		}
		query = append(query, int32(i))
		if len(v.Domain) > maxDom {
			maxDom = len(v.Domain)
		}
	}
	sc.query = query
	counts := sc.marginals(g)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(query) {
		workers = len(query)
	}
	if cap(sc.wk) >= workers {
		sc.wk = sc.wk[:workers]
	} else {
		sc.wk = make([]workerScratch, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &sc.wk[w]
			// One score buffer per worker, sized once for the graph's
			// largest domain (the old per-variable regrow churned
			// allocations on every domain-size increase).
			ws.buf = growF(ws.buf, maxDom)
			for qi := w; qi < len(query); qi += workers {
				v := query[qi]
				vr := &g.Vars[v]
				seed := cfg.Seed + int64(v)*1_000_003
				if cfg.VarSeed != nil {
					seed = cfg.VarSeed[v]
				}
				rng := ws.seeded(seed)
				dom := len(vr.Domain)
				scores := ws.buf[:dom]
				// The conditional never changes (no query-side deps):
				// compute once, then draw BurnIn+Samples times.
				if vr.Obs >= 0 {
					vr.Assign = vr.Obs
				} else {
					vr.Assign = int32(rng.Intn(dom))
				}
				g.LocalScores(v, scores)
				for s := 0; s < cfg.BurnIn; s++ {
					sampleSoftmax(rng, scores)
				}
				for s := 0; s < cfg.Samples; s++ {
					counts[v][sampleSoftmax(rng, scores)]++
				}
			}
		}(w)
	}
	wg.Wait()
	m := &sc.m
	m.P = counts
	n := float64(cfg.Samples)
	for _, v := range query {
		best := 0
		for d := range m.P[v] {
			m.P[v][d] /= n
			if m.P[v][d] > m.P[v][best] {
				best = d
			}
		}
		g.Vars[v].Assign = int32(best)
	}
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			m.P[i][g.Vars[i].Obs] = 1
		}
	}
	return m
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
	for i := range g.Vars {
		if g.Vars[i].Evidence {
			g.Vars[i].Assign = g.Vars[i].Obs
		}
	}
	m := &factor.Marginals{P: make([][]float64, len(g.Vars))}
	for i := range g.Vars {
		v := &g.Vars[i]
		m.P[i] = make([]float64, len(v.Domain))
		if v.Evidence {
			m.P[i][v.Obs] = 1
			continue
		}
		g.LocalScores(int32(i), m.P[i])
		softmaxInPlace(m.P[i])
	}
	return m
}

// sampleSoftmax draws an index proportionally to exp(scores). When every
// score is -Inf the softmax is degenerate (-Inf - -Inf is NaN); the draw
// falls back to uniform instead of propagating NaN weights.
func sampleSoftmax(rng *rand.Rand, scores []float64) int {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		return rng.Intn(len(scores))
	}
	var z float64
	for _, s := range scores {
		z += math.Exp(s - maxS)
	}
	u := rng.Float64() * z
	var acc float64
	for i, s := range scores {
		acc += math.Exp(s - maxS)
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}

// softmaxInPlace turns scores into probabilities. An all--Inf input (no
// candidate is feasible) yields the uniform distribution rather than NaN.
func softmaxInPlace(scores []float64) {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	if math.IsInf(maxS, -1) {
		for i := range scores {
			scores[i] = 1 / float64(len(scores))
		}
		return
	}
	var z float64
	for i, s := range scores {
		scores[i] = math.Exp(s - maxS)
		z += scores[i]
	}
	for i := range scores {
		scores[i] /= z
	}
}
