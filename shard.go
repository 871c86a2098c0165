package holoclean

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"holoclean/internal/compile"
	"holoclean/internal/dataset"
	"holoclean/internal/ddlog"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/gibbs"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
)

// A shard is one independent unit of the sharded pipeline: the noisy
// cells (as indices into the global pruned-domain cell list) whose
// grounding and inference it owns. All noisy cells of a tuple land in the
// same shard, so intra-tuple interactions (weak-evidence discounts,
// single-tuple constraints) stay whole.
//
// Shard boundaries follow the connected components of the conflict
// hypergraph when the model grounds correlation (n-ary) factors: cells
// that never co-occur in a violation are conditionally independent given
// the evidence (Section 5, and the decomposition PClean-style systems
// exploit per entity), so per-component inference is exact up to the
// Algorithm 3 approximation for pairs that only violate hypothetically.
// When the model has no correlation factors (the default DC Feats
// relaxation of Section 5.2), every query variable is independent and
// shards are just load-balanced, tuple-aligned batches.
type shard struct {
	cells []int // indices into Domains.Cells, ascending
	// split marks sub-shards cut out of an oversized conflict component
	// by Options.MaxComponentCells. Split shards are not exact components:
	// their cut severs real correlations, which boundary-factor damping
	// (boundaryDamp) partially restores.
	split bool
}

// boundaryDamp is the weight coefficient of boundary factors on split
// sub-shards: a denial-constraint pair severed by a MaxComponentCells cut
// is grounded on each side with the other side folded to its observed
// value and the factor's weight scaled by it — a cavity-style damped pull
// toward the neighbor's observation instead of Algorithm 3's hard cut
// (ddlog.Database.Boundary). Both sub-shards ground their half, so 0.5
// restores about one factor's worth of energy per cut pair.
const boundaryDamp = 0.5

// cellBatch bounds shards formed by batching independent cells: the
// load-balanced shards of the independent regime and the shards of noisy
// cells whose tuples appear in no violation (e.g. cells flagged by
// outlier detection). It is a fixed constant — never derived from the
// worker count — so the shard plan, and with it every grounded graph and
// chain seed, is identical for every Options.Workers value.
const cellBatch = 256

// planShards assigns every noisy cell to a shard. coupled says whether
// the program grounds correlation factors (DC Factors variants), in which
// case violation components bound the shards; otherwise cells are batched
// into fixed-size chunks for the worker pool. The plan is deterministic
// and depends only on the dataset and constraints — never on scheduling
// or the worker count. comps are the conflict hypergraph's connected
// components (nil when there is no hypergraph), computed once by the
// plan stage.
//
// maxComponentCells, when positive, splits conflict components holding
// more cells than the cap into tuple-aligned sub-shards (Options.
// MaxComponentCells). The cut is the same tuple-boundary batching used
// for independent cells, so it too depends only on the plan inputs;
// severed cross-sub-shard correlations are partially restored at
// inference time by boundary-factor damping (see ddlog.Database.Boundary).
func planShards(dom *pruning.Domains, comps [][]int, coupled bool, maxComponentCells int) []shard {
	n := len(dom.Cells)
	if n == 0 {
		return nil
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if coupled && comps == nil {
		// Correlation factors with no conflict hypergraph to partition by:
		// keep one shard so the grounded model matches the whole-relation
		// one instead of dropping hypothetical cross-batch pairs.
		return []shard{{cells: all}}
	}
	if !coupled {
		return batchByTuple(dom.Cells, all, cellBatch)
	}
	compOf := make(map[int]int)
	for ci, tuples := range comps {
		for _, t := range tuples {
			compOf[t] = ci
		}
	}
	byComp := make([][]int, len(comps))
	var stray []int
	for i, c := range dom.Cells {
		if ci, ok := compOf[c.Tuple]; ok {
			byComp[ci] = append(byComp[ci], i)
		} else {
			stray = append(stray, i)
		}
	}
	var out []shard
	for _, cells := range byComp {
		switch {
		case len(cells) == 0:
		case maxComponentCells > 0 && len(cells) > maxComponentCells:
			for _, sub := range batchByTuple(dom.Cells, cells, maxComponentCells) {
				sub.split = true
				out = append(out, sub)
			}
		default:
			out = append(out, shard{cells: cells})
		}
	}
	out = append(out, batchByTuple(dom.Cells, stray, cellBatch)...)
	return out
}

// splitPlan is the shard planner's dirty-set mode, for the
// independent-variable regime, where a cell's closed-form marginal is a
// function of its own factors and the weights, never of which batch it
// lands in: given the set of tuples invalidated by a delta, it packs the
// dirty cells into tuple-aligned batches, as the full plan packs every
// cell, and returns every other cell index as reused, its cached outcome
// carried forward.
func splitPlan(cells []dataset.Cell, dirty map[int]bool) (exec []shard, reused []int) {
	var dirtyIdx []int
	for i, c := range cells {
		if dirty[c.Tuple] {
			dirtyIdx = append(dirtyIdx, i)
		} else {
			reused = append(reused, i)
		}
	}
	return batchByTuple(cells, dirtyIdx, cellBatch), reused
}

// batchByTuple packs cell indices into shards of roughly target cells,
// splitting only at tuple boundaries. cells must be grouped by tuple
// (detection emits noisy cells sorted by tuple, then attribute).
func batchByTuple(cells []dataset.Cell, idx []int, target int) []shard {
	var out []shard
	var cur []int
	for k, i := range idx {
		if len(cur) >= target && cells[i].Tuple != cells[idx[k-1]].Tuple {
			out = append(out, shard{cells: cur})
			cur = nil
		}
		cur = append(cur, i)
	}
	if len(cur) > 0 {
		out = append(out, shard{cells: cur})
	}
	return out
}

// groundLearning grounds the learning graph: every evidence variable with
// exactly the factors it would carry in a monolithic grounding, and no
// query variable. Learning over this graph is therefore learning on the
// union of all shards' training cells — the weight-tying choice of the
// sharded pipeline (see ARCHITECTURE.md): one SGD pass over the global
// evidence set produces a single weight vector that every shard shares,
// instead of averaging independently learned per-shard weights. The
// discounts that ask whether a cell is repairable read the pass's domains
// through the shared index the plan stage wired into prep.DB.
func groundLearning(prep *compile.Prepared, maxScan int) (*ddlog.Grounded, error) {
	prog := &ddlog.Program{}
	for _, r := range prep.Program.Rules {
		// Correlation factors never touch evidence variables (clean and
		// evidence cells fold to constants during DC grounding), so they
		// carry no learning signal; skip them.
		if r.Kind == ddlog.DCFactors {
			continue
		}
		prog.Add(r)
	}
	db := *prep.DB
	db.Domains = &pruning.Domains{}
	return ddlog.Ground(&db, prog, ddlog.Config{MaxScanCounterparts: maxScan})
}

// learnedWeights snapshots the learnable weights of the learning graph,
// by tying key for the boundary (LearnedWeights, the next pass) and by tie
// for broadcast into the shard graphs.
func learnedWeights(g *factor.Graph) (map[string]float64, *factor.Weights) {
	keys := make(map[string]float64, g.Weights.Len())
	ties := factor.NewWeights()
	for i, t := range g.Weights.Ties {
		if w := g.Weights.W[i]; !g.Weights.Fixed[i] {
			keys[g.Weights.Key(int32(i))] = w
			ties.Tie(t, w, false)
		}
	}
	return keys, ties
}

// cellOutcome is the cached inference result of one noisy cell: its
// marginal distribution (sorted, so its MAP probability is dist[0].P), its
// MAP label and the unlearned ties of its factors (unlearnedOf). A pass
// holds one per domain cell (pass.outcomes); a cell with no candidate
// keeps the zero value. Incremental sessions carry outcomes of clean cells
// forward across recleans; the session's passes share one name table, so
// a carried tie means what it meant.
type cellOutcome struct {
	dist      []ValueProb
	mapVal    dataset.Value
	unlearned []factor.Tie
}

// unlearnedOf lists the ties of variable v's unary and soft factors whose
// weights the broadcast lacks (lacks, by weight id, from countKeys): what
// its cell adds to RunStats.Weights when a later pass carries the outcome
// forward. g must be frozen.
func unlearnedOf(g *factor.Graph, v int32, lacks []bool) []factor.Tie {
	var ties []factor.Tie
	note := func(w int32) {
		if t := g.Weights.Ties[w]; lacks[w] && !slices.Contains(ties, t) {
			ties = append(ties, t)
		}
	}
	for _, i := range g.IncidentUnaries(v) {
		note(g.Unaries[i].Weight)
	}
	for _, i := range g.IncidentSofts(v) {
		note(g.Softs[i].Weight)
	}
	return ties
}

// chainSeed derives a cell's chromatic stream seed from its identity
// (tuple, attribute) rather than its rank among the query variables, so
// an inserted or removed noisy cell never re-seeds the cells after it.
func chainSeed(base int64, c dataset.Cell, numAttrs int) int64 {
	return base + (int64(c.Tuple)*int64(numAttrs)+int64(c.Attr)+1)*1_000_003
}

// resolveGibbs resolves the sampling budget of correlated shards.
// GibbsSamples <= 0 falls back to the default 50 (zero samples would make
// marginals undefined), while GibbsBurnIn is taken literally: zero means
// zero sweeps discarded, and only negative values clamp to zero.
func resolveGibbs(o Options) (burnIn, samples int) {
	burnIn = o.GibbsBurnIn
	if burnIn < 0 {
		burnIn = 0
	}
	samples = o.GibbsSamples
	if samples <= 0 {
		samples = 50
	}
	return burnIn, samples
}

// cellVarSeeds builds the chromatic schedule's per-variable stream
// seeds of a grounded graph, indexed by graph variable id. Evidence
// variables (present on graphs that ground dictionary-match or learning
// evidence) draw nothing and keep a zero entry; query variables are seeded
// by the identity of the cell they repair.
func cellVarSeeds(g *ddlog.Grounded, base int64, numAttrs int) []int64 {
	vs := make([]int64, len(g.Graph.Vars))
	for vi := range g.Graph.Vars {
		if g.Graph.Vars[vi].Evidence {
			continue
		}
		vs[vi] = chainSeed(base, g.Cells[vi], numAttrs)
	}
	return vs
}

// shardRunner executes the per-shard ground (with the broadcast weights) →
// infer → extract pipeline of one pass over a bounded worker pool. Each
// shard writes its cells' outcomes into their own slots of the pass's
// table; the mutex guards only the per-shard counters and countKeys.
type shardRunner struct {
	*pass

	mu         sync.Mutex
	groundTime time.Duration
	inferTime  time.Duration
}

// runAll executes every shard on a pool of at most workers goroutines and
// returns the first error. The plan partitions the cell indices, so no two
// shards share a slot of the outcome table and scheduling order never
// changes the outcome.
func (r *shardRunner) runAll(plan []shard, workers int) error {
	if len(plan) == 0 {
		return nil
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	if workers < 1 {
		workers = 1
	}
	// The jobs channel is buffered with the whole plan and closed before
	// the workers start, so a worker bailing out on an error can never
	// leave a blocked producer behind.
	jobs := make(chan int, len(plan))
	for i := range plan {
		jobs <- i
	}
	close(jobs)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := r.runOne(plan[i]); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// shardDB narrows the prepared database to one shard's cells. The pass's
// domains stay reachable through the shared index, so the grounder tells a
// query variable of another shard from a clean cell.
func (p *pass) shardDB(sh shard) *ddlog.Database {
	prep := p.prep
	cells := make([]dataset.Cell, 0, len(sh.cells))
	cands := make([][]dataset.Value, 0, len(sh.cells))
	var matches []extdict.Match
	for k, i := range sh.cells {
		c := prep.Domains.Cells[i]
		// The cells ascend by tuple: a tuple's matches join at its first.
		if k == 0 || c.Tuple != cells[k-1].Tuple {
			matches = append(matches, p.matches[c.Tuple]...)
		}
		cells = append(cells, c)
		cands = append(cands, prep.Domains.Candidates[i])
	}
	db := *prep.DB
	db.Domains = &pruning.Domains{Cells: cells, Candidates: cands}
	db.Evidence, db.EvidenceDomains = nil, nil
	db.Matches = matches
	if sh.split {
		// Only split sub-shards damp their boundary: ordinary component
		// shards have no severed correlations (their cut is exact up to
		// Algorithm 3's hypothetical-pair approximation), and batch shards
		// hold independent variables.
		db.Boundary = boundaryDamp
	}
	return &db
}

// shardConfig is the grounding configuration of every shard: the shard
// graphs are grounded with the broadcast weights they infer with, so a
// learnable weight starts at its learned value (keys grounded only by
// query cells receive no gradient in a monolithic run either and keep
// their prior), and unary and soft factors of weight 0 are left out.
func (p *pass) shardConfig(arena *ddlog.Arena) ddlog.Config {
	return ddlog.Config{MaxScanCounterparts: p.opts.MaxScanCounterparts, Weights: p.ties, Arena: arena}
}

// runOne grounds, infers, and extracts a single shard.
func (r *shardRunner) runOne(sh shard) error {
	prep, o := r.prep, r.opts
	db := r.shardDB(sh)

	// Grounding scratch comes from the process-wide arena pool, so the
	// worker pool's steady stream of shard groundings — and every
	// subsequent Session.Reclean — reuses the same few backing arrays.
	arena := ddlog.AcquireArena()
	defer ddlog.ReleaseArena(arena)

	tg := time.Now()
	g, err := ddlog.Ground(db, prep.Program, r.shardConfig(arena))
	if err != nil {
		return err
	}
	groundDur := time.Since(tg)

	// Inference, by graph shape (gibbs.Run): a shard with no query-side
	// correlation is solved in closed form; a correlated one is colored and
	// swept class by class, each variable drawing from a stream seeded by
	// the cell it repairs, so the result is stable across pools and deltas.
	// Buffers come from the scratch pool; the marginals borrow them, so the
	// scratch is released only after extraction below.
	ti := time.Now()
	hasNary := g.Graph.HasNaryOnQuery()
	burn, samp := resolveGibbs(o)
	scratch := gibbs.AcquireScratch()
	defer gibbs.ReleaseScratch(scratch)
	cfg := gibbs.Config{BurnIn: burn, Samples: samp, Scratch: scratch}
	if hasNary {
		cfg.Colors = partition.ColorGraph(g.Graph)
		cfg.VarSeed = cellVarSeeds(g, o.Seed, prep.DS.NumAttrs())
	}
	m := gibbs.Run(g.Graph, cfg)
	inferDur := time.Since(ti)

	r.mu.Lock()
	r.groundTime += groundDur
	r.inferTime += inferDur
	r.res.Stats.Factors += g.Graph.NumFactors()
	r.res.Stats.PaperFactors += g.Stats.PaperFactors
	if !hasNary {
		r.res.Stats.ExactShards++
	}
	lacks := r.countKeys(g.Graph.Weights)
	r.mu.Unlock()

	// Extract each query variable's sorted marginal and MAP label into its
	// cell's slot.
	dict := r.ds.Dict()
	for vi, c := range g.Cells {
		v := int32(vi)
		dom := g.Graph.Vars[v].Domain
		dist := make([]ValueProb, len(dom))
		for d, label := range dom {
			dist[d] = ValueProb{Value: dict.String(dataset.Value(label)), P: m.Prob(v, d)}
		}
		slices.SortFunc(dist, func(a, b ValueProb) int {
			switch {
			case a.P > b.P:
				return -1
			case a.P < b.P:
				return 1
			}
			return 0
		})
		mapIdx, _ := m.MAP(v)
		out := cellOutcome{dist: dist, mapVal: dataset.Value(dom[mapIdx])}
		if r.keep {
			out.unlearned = unlearnedOf(g.Graph, v, lacks)
		}
		r.outcomes[r.domains.Index(c)] = out
	}
	return nil
}

// defaultWorkers resolves Options.Workers.
func defaultWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
