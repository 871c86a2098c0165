// Package holoclean is a from-scratch Go implementation of HoloClean
// (Rekatsinas, Chu, Ilyas, Ré — "HoloClean: Holistic Data Repairs with
// Probabilistic Inference", VLDB 2017). HoloClean unifies three families
// of data-repairing signals — integrity constraints (denial constraints),
// external dictionaries matched through matching dependencies, and
// quantitative statistics of the dirty dataset itself — by compiling them
// into a single probabilistic program. Grounding that program yields a
// factor graph; weight learning and Gibbs sampling over the graph produce
// a marginal distribution per noisy cell, and repairs are the maximum a
// posteriori values.
//
// Basic usage:
//
//	ds, _ := holoclean.LoadCSV("dirty.csv", "")
//	dcs, _ := holoclean.ParseConstraints(strings.NewReader(
//	    "c1: t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)"))
//	res, _ := holoclean.New(holoclean.DefaultOptions()).Clean(ds, dcs)
//	for _, r := range res.Repairs {
//	    fmt.Printf("%s[%d]: %q → %q (p=%.2f)\n", r.Attr, r.Tuple, r.Old, r.New, r.Probability)
//	}
//
// The pipeline follows Figure 2 of the paper: (1) error detection splits
// cells into noisy and clean; (2) compilation generates a DDlog-style
// program whose rules encode each signal and grounds it, with the
// scalability optimizations of Section 5 (domain pruning via Algorithm 2,
// tuple partitioning via Algorithm 3, and relaxation of hard constraints
// to features per Section 5.2); (3) repair runs SGD weight learning on
// clean-cell evidence and Gibbs sampling for marginals.
package holoclean

import (
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"

	"holoclean/internal/compile"
	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/ddlog"
	"holoclean/internal/discovery"
	"holoclean/internal/errordetect"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/learn"
	"holoclean/internal/partition"
	"holoclean/internal/stats"
	"holoclean/internal/telemetry"
	"holoclean/internal/violation"
)

// Dataset is a relational instance to be cleaned. See NewDataset, LoadCSV
// and ReadCSV for constructors.
type Dataset = dataset.Dataset

// Cell identifies one cell (tuple index, attribute index) of a Dataset.
type Cell = dataset.Cell

// Constraint is a denial constraint (Section 3.1).
type Constraint = dc.Constraint

// Dictionary is an external reference relation (Section 4.1's ExtDict).
type Dictionary = extdict.Dictionary

// MatchDependency aligns dataset attributes with dictionary attributes
// (Figure 1(C)).
type MatchDependency = extdict.MatchDependency

// MatchTerm is one attribute correspondence of a MatchDependency.
type MatchTerm = extdict.Term

// Variant selects how denial constraints enter the probabilistic model
// (the axis of Figure 5). The zero Variant is invalid; use one of the
// predefined values or set at least one field.
type Variant = compile.Variant

// The five model variants of Figure 5.
var (
	// VariantDCFeats relaxes constraints to features over independent
	// random variables (Section 5.2) — the configuration behind the
	// paper's headline Table 3 numbers.
	VariantDCFeats = compile.DCFeats
	// VariantDCFactors grounds Algorithm 1 correlation factors.
	VariantDCFactors = compile.DCFactorsOnly
	// VariantDCFactorsPartitioned adds Algorithm 3 partitioning.
	VariantDCFactorsPartitioned = compile.DCFactorsPartitioned
	// VariantDCFeatsFactors combines features with correlation factors.
	VariantDCFeatsFactors = compile.DCFeatsFactors
	// VariantDCFeatsFactorsPartitioned adds partitioning to the combined
	// model.
	VariantDCFeatsFactorsPartitioned = compile.DCFeatsFactorsPartTwo
)

// NewDataset creates an empty dataset with the given attribute names.
func NewDataset(attrs []string) *Dataset { return dataset.New(attrs) }

// LoadCSV reads a dataset from a CSV file; the first row is the schema.
// If sourceColumn is non-empty that column becomes per-tuple provenance
// used for source-reliability features.
func LoadCSV(path, sourceColumn string) (*Dataset, error) {
	return dataset.ReadCSVFile(path, sourceColumn)
}

// ReadCSV is LoadCSV over an io.Reader.
func ReadCSV(r io.Reader, sourceColumn string) (*Dataset, error) {
	return dataset.ReadCSV(r, sourceColumn)
}

// ParseConstraint parses one denial constraint, e.g.
// "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)".
func ParseConstraint(s string) (*Constraint, error) { return dc.Parse(s) }

// MustParseConstraint is ParseConstraint that panics on error.
func MustParseConstraint(s string) *Constraint { return dc.MustParse(s) }

// ParseConstraints parses one constraint per line ('#' comments allowed;
// an optional "name:" prefix names the constraint).
func ParseConstraints(r io.Reader) ([]*Constraint, error) { return dc.ParseAll(r) }

// FD builds the denial constraints for the functional dependency
// lhs… → rhs… (Example 2).
func FD(name string, lhs, rhs []string) []*Constraint { return dc.FD(name, lhs, rhs) }

// DiscoverConstraints mines approximate functional dependencies from the
// (mostly clean) dataset and returns them as denial constraints — the
// constraint-discovery step [11] HoloClean's inputs usually come from.
// epsilon is the tolerated violation rate (0 means 0.05); maxLHS bounds
// the left-hand-side size (1 or 2).
func DiscoverConstraints(ds *Dataset, epsilon float64, maxLHS int) []*Constraint {
	fds := discovery.Discover(ds, discovery.Config{Epsilon: epsilon, MaxLHS: maxLHS})
	return discovery.Constraints(ds, fds)
}

// NewDictionary creates an external dictionary with the given schema.
func NewDictionary(name string, attrs []string) *Dictionary {
	return extdict.NewDictionary(name, attrs)
}

// Options configures the cleaner. The zero value is not usable; start
// from DefaultOptions.
type Options struct {
	// Tau is the domain-pruning threshold τ of Algorithm 2.
	Tau float64
	// MaxCandidates caps each noisy cell's candidate set (0 = uncapped).
	MaxCandidates int
	// FullDomain disables Algorithm 2 (every value of the attribute's
	// active domain becomes a candidate) — the no-pruning ablation.
	FullDomain bool
	// Variant selects the denial-constraint encoding.
	Variant Variant
	// MinimalityWeight is the fixed prior toward keeping initial values.
	MinimalityWeight float64
	// DCWeight is the fixed soft weight of Algorithm 1 factors.
	DCWeight float64
	// EvidenceSample bounds the clean cells used as labeled examples.
	EvidenceSample int
	// OutlierDetection adds the categorical-outlier error detector on
	// top of constraint-violation detection.
	OutlierDetection bool
	// Dictionaries and MatchDependencies supply external data.
	Dictionaries      []*Dictionary
	MatchDependencies []*MatchDependency
	// DictionaryPrior is the initial (learnable) reliability weight w(k)
	// of dictionary match factors.
	DictionaryPrior float64
	// RelaxedDCPrior is the initial (learnable) weight of relaxed
	// denial-constraint features.
	RelaxedDCPrior float64
	// DisableCooccurFeatures turns off the quantitative-statistics signal
	// (for ablations).
	DisableCooccurFeatures bool
	// DisableSourceFeatures turns off provenance features.
	DisableSourceFeatures bool
	// LearningEpochs, LearningRate, L2 configure SGD (Section 2.2's ERM).
	LearningEpochs int
	LearningRate   float64
	L2             float64
	// GibbsBurnIn is the number of sweeps the sampler discards before
	// collecting marginal statistics. Zero means zero sweeps — an explicit
	// no-burn-in run — and negative values clamp to zero; start from
	// DefaultOptions for the paper's budget of 10.
	GibbsBurnIn int
	// GibbsSamples is the number of collected sweeps; values <= 0 fall
	// back to the default 50 (zero samples would leave marginals
	// undefined).
	GibbsSamples int
	// ExactInference replaces Gibbs with the closed-form posterior when
	// the model has independent query variables (Section 5.2 regime).
	// With correlation factors present it falls back to Gibbs.
	ExactInference bool
	// ParallelInference samples independent query variables across all
	// CPUs (the DimmWitted [41] regime); deterministic per seed. It has
	// no effect on models with correlation factors.
	ParallelInference bool
	// MaxScanCounterparts caps DC grounding when no equality predicate
	// can index the join (0 = unlimited).
	MaxScanCounterparts int
	// InitialWeights, when non-nil, replaces weight learning: the map
	// (tying key → weight, e.g. a previous run's Result.LearnedWeights)
	// is broadcast to every shard exactly as freshly learned weights
	// would be, and evidence sampling, learning-graph grounding, and SGD
	// are all skipped. Session.Reclean uses this to reuse a session's
	// weights across incremental recleans; it is also the reference
	// configuration for verifying that an incremental reclean matches a
	// from-scratch Clean bit for bit.
	InitialWeights map[string]float64
	// RelearnEvery makes a Session relearn weights on every Nth Reclean
	// (N = 1 relearns every time). Zero — the default — never relearns
	// after the initial Clean: weights are reused via their tying keys,
	// trading slow drift for reclean latency. Plain Clean ignores it.
	RelearnEvery int
	// Workers bounds the worker pool of the sharded pipeline: Clean
	// splits the noisy cells into independent shards (connected
	// components of the conflict hypergraph when correlation factors are
	// grounded, load-balanced batches otherwise) and grounds and infers
	// each shard on Workers goroutines. 0 means runtime.GOMAXPROCS(0).
	// Results are deterministic for a given Seed regardless of Workers.
	Workers int
	// IntraWorkers bounds the goroutines sampling WITHIN one correlated
	// shard. Large conflict components (>= 512 query variables) run a
	// chromatic Gibbs schedule: the factor graph is greedily colored, and
	// each color class — mutually non-adjacent variables — is swept by
	// IntraWorkers goroutines in parallel. Per-variable counter-based RNG
	// streams make the draw sequence a function of variable identity
	// alone, so results are bit-identical for every IntraWorkers value.
	// 0 means 1 (sequential within a shard); total goroutines are
	// bounded by Workers × IntraWorkers.
	IntraWorkers int
	// MaxComponentCells, when positive, splits conflict components whose
	// cell count exceeds it into tuple-aligned sub-shards, bounding the
	// largest grounding and sampling unit (and therefore per-shard memory
	// and the pipeline's critical path) on skewed datasets where one
	// giant component dominates. Cut correlations are partially restored
	// by boundary-factor damping (BoundaryDamp). 0 — the default — never
	// splits: every component is inferred whole and exactly.
	MaxComponentCells int
	// BoundaryDamp is the weight coefficient of boundary factors on split
	// sub-shards: a denial-constraint pair severed by a MaxComponentCells
	// cut is grounded on each side with the other side folded to its
	// observed value and the factor's weight scaled by BoundaryDamp — a
	// cavity-style damped pull toward the neighbor's observation instead
	// of Algorithm 3's hard cut. Both sub-shards ground their half, so
	// the default 0.5 restores about one factor's worth of energy per cut
	// pair. 0 disables damping (pure scope cut). Irrelevant unless
	// MaxComponentCells splits something.
	BoundaryDamp float64
	// Seed drives every stochastic component.
	Seed int64
	// Tracer, when non-nil, receives per-stage durations (detect,
	// ground, learn, infer, total) from every pipeline run; the serve
	// tier points it at the /metrics histograms. A nil tracer is free:
	// span calls are allocation-free no-ops, so the zero-alloc
	// warmed-sweep guarantee is unaffected. Tracing never influences
	// the computation — results stay byte-identical per seed.
	Tracer *telemetry.Tracer
}

// DefaultOptions mirrors the paper's defaults: τ=0.5, the DC Feats
// variant, and modest learning/sampling budgets.
func DefaultOptions() Options {
	return Options{
		Tau:               0.5,
		Variant:           VariantDCFeats,
		MinimalityWeight:  0.5,
		DCWeight:          4.0,
		EvidenceSample:    2000,
		DictionaryPrior:   2.0,
		RelaxedDCPrior:    1.5,
		LearningEpochs:    10,
		LearningRate:      0.1,
		L2:                1e-4,
		GibbsBurnIn:       10,
		GibbsSamples:      50,
		ParallelInference: true,
		BoundaryDamp:      0.5,
		Seed:              1,
	}
}

// ValueProb is one entry of a cell's marginal distribution.
type ValueProb struct {
	Value string
	P     float64
}

// Repair is one proposed cell update with its marginal probability —
// HoloClean's rigorous confidence semantics (Section 2.2).
type Repair struct {
	Cell        Cell
	Attr        string
	Tuple       int
	Old         string
	New         string
	Probability float64
}

// RunStats aggregates sizes and timings of one cleaning run.
//
// Factor and variable counts describe the union of the per-shard models
// plus the shared learning graph, which for independent-variable models
// coincides with the monolithic grounding. CompileTime and InferTime sum
// per-shard grounding and inference durations, so with Workers > 1 they
// are CPU-style totals that can exceed the wall-clock TotalTime.
type RunStats struct {
	NoisyCells   int
	Variables    int
	QueryVars    int
	EvidenceVars int
	Factors      int
	PaperFactors int64
	Weights      int

	// Shards is the number of independent shards the pipeline executed;
	// SingletonShards of them were conflict components holding a single
	// uncorrelated variable and took the closed-form inference fast path.
	Shards          int
	SingletonShards int
	// SplitShards counts the sub-shards cut out of oversized conflict
	// components by Options.MaxComponentCells (zero when nothing exceeded
	// the cap or splitting is off).
	SplitShards int
	// ComponentSizeHist is a log2 histogram of conflict-component sizes
	// (in tuples): bucket k counts components with 2^k <= n < 2^(k+1).
	// Nil when the model grounds no correlation factors or no violations
	// were observed.
	ComponentSizeHist []int
	// LargestComponentFrac is the fraction of conflict-hypergraph tuples
	// claimed by the largest component — the skew measure that predicts
	// whether one giant component will serialize the shard pool (the
	// regime MaxComponentCells and IntraWorkers exist for). Zero when
	// there are no components.
	LargestComponentFrac float64
	// ShardsReused counts the shards of the full plan whose cached
	// results an incremental Session.Reclean carried forward instead of
	// re-executing. Always zero for a plain Clean.
	ShardsReused int

	// AllocBytes and AllocObjects are the cumulative heap bytes and
	// objects allocated while the run executed, measured as deltas of the
	// pause-free runtime/metrics allocation counters (no stop-the-world
	// sampling on the request path). The counters are process-wide: when
	// several cleaning jobs run concurrently (the serve layer's job
	// queue) each run's figures include its neighbors' allocations, so
	// treat them as an upper bound there and as exact for a lone run.
	// They are the cheap per-run view of what `go test -benchmem` reports
	// per op, and the flat-arena core exists to keep them near-constant
	// across steady-state recleans.
	AllocBytes   uint64
	AllocObjects uint64
	// PeakHeapBytes is the largest live heap (runtime/metrics
	// /memory/classes/heap/objects) observed at the run's phase
	// boundaries — after compilation/learning and at completion. It is a
	// sampled watermark, not a continuous maximum, and is process-wide
	// like the counters above.
	PeakHeapBytes uint64

	DetectTime  time.Duration
	CompileTime time.Duration
	LearnTime   time.Duration
	InferTime   time.Duration
	TotalTime   time.Duration
}

// memProbe tracks the RunStats memory counters across one run using the
// runtime/metrics package, whose reads do not stop the world — safe on
// the serving layer's reclean request path, unlike runtime.ReadMemStats.
type memProbe struct {
	samples    [3]metrics.Sample // allocs:bytes, allocs:objects, heap live
	startBytes uint64
	startObjs  uint64
	peak       uint64
}

func (p *memProbe) read() (allocBytes, allocObjs, live uint64) {
	metrics.Read(p.samples[:])
	return p.samples[0].Value.Uint64(), p.samples[1].Value.Uint64(), p.samples[2].Value.Uint64()
}

// beginMemProbe snapshots the allocator at the start of a run.
func beginMemProbe() *memProbe {
	p := &memProbe{}
	p.samples[0].Name = "/gc/heap/allocs:bytes"
	p.samples[1].Name = "/gc/heap/allocs:objects"
	p.samples[2].Name = "/memory/classes/heap/objects:bytes"
	var live uint64
	p.startBytes, p.startObjs, live = p.read()
	p.peak = live
	return p
}

// sample records a phase boundary, keeping the high-water heap mark.
func (p *memProbe) sample() {
	if _, _, live := p.read(); live > p.peak {
		p.peak = live
	}
}

// finish writes the counters into st.
func (p *memProbe) finish(st *RunStats) {
	bytes, objs, live := p.read()
	if live > p.peak {
		p.peak = live
	}
	st.AllocBytes = bytes - p.startBytes
	st.AllocObjects = objs - p.startObjs
	st.PeakHeapBytes = p.peak
}

// Result is the outcome of Clean: the repaired dataset, the repair list,
// and per-cell marginals.
type Result struct {
	// Repaired is a copy of the input with MAP repairs applied.
	Repaired *Dataset
	// Repairs lists cells whose MAP value differs from the observed one,
	// ordered by tuple then attribute.
	Repairs []Repair
	// Marginals holds the posterior distribution of every noisy cell
	// (sorted by decreasing probability).
	Marginals map[Cell][]ValueProb
	// LearnedWeights maps tying keys to the learned (or injected) weight
	// values the run inferred with. Feed it to Options.InitialWeights to
	// repeat inference without relearning.
	LearnedWeights map[string]float64
	// Stats reports model sizes and phase timings.
	Stats RunStats
}

// MarginalOf returns the posterior of one cell, or nil if the cell was
// not inferred.
func (r *Result) MarginalOf(c Cell) []ValueProb { return r.Marginals[c] }

// Cleaner runs the HoloClean pipeline with fixed options.
//
// Concurrency contract: a Cleaner holds no mutable state, so concurrent
// Clean calls on distinct datasets are safe. Calls sharing one Dataset
// (or clones of it — Clone shares the value dictionary) are NOT safe to
// run concurrently: the pipeline interns constraint constants, match
// values, and confirmed feedback values into that shared dictionary.
// Session (stateful, incremental) must be fully serialized — see its
// documentation and the serve package, which locks each Session behind
// a per-tenant mutex and publishes dictionary-free read views.
type Cleaner struct {
	opts Options
	// trusted carries user-confirmed cells from CleanWithFeedback.
	trusted []dataset.Cell
}

// New returns a Cleaner.
func New(opts Options) *Cleaner { return &Cleaner{opts: opts} }

// incrementalInputs carries the precomputed state Session.Reclean threads
// into the pipeline: scoped detection results, delta-maintained
// statistics, reusable weights, a rebound shared index, and the dirty
// tuple set together with the previous run's caches.
type incrementalInputs struct {
	// prep, when non-nil, is the compilation state the session already
	// prepared (it needs the refreshed domains to compute the dirty set
	// before the pipeline runs); clean skips its own Prepare call.
	prep       *compile.Prepared
	detection  *errordetect.Result
	hypergraph *violation.Hypergraph
	st         *stats.Stats
	masked     *stats.Stats
	// weights, when non-nil, are broadcast instead of learned.
	weights map[string]float64
	shared  *ddlog.SharedIndex
	// interner, when non-nil, carries the session's canonical tying-key
	// store across recleans so repeat groundings allocate no key strings.
	interner *factor.KeyInterner
	// dirty is the invalidated tuple set; nil executes every shard.
	dirty    map[int]bool
	prevSigs map[string]bool
	outcomes map[Cell]cellOutcome
	// detectTime is the scoped-detection wall clock spent by the caller.
	detectTime time.Duration
}

// cleanArtifacts exposes the pipeline state a Session caches for its next
// incremental reclean.
type cleanArtifacts struct {
	prep     *compile.Prepared
	shared   *ddlog.SharedIndex
	interner *factor.KeyInterner
	runner   *shardRunner
	// plan is the full shard plan, including shards that were reused.
	plan []shard
}

// compileOptions maps the cleaner's options onto the compiler's.
func (cl *Cleaner) compileOptions() compile.Options {
	o := cl.opts
	return compile.Options{
		Tau:                    o.Tau,
		MaxCandidates:          o.MaxCandidates,
		FullDomain:             o.FullDomain,
		Variant:                o.Variant,
		MinimalityWeight:       o.MinimalityWeight,
		DCWeight:               o.DCWeight,
		MaxEvidence:            o.EvidenceSample,
		Seed:                   o.Seed,
		Dictionaries:           o.Dictionaries,
		MatchDeps:              o.MatchDependencies,
		DictionaryPrior:        o.DictionaryPrior,
		RelaxedDCPrior:         o.RelaxedDCPrior,
		DisableCooccurFeatures: o.DisableCooccurFeatures,
		DisableSourceFeatures:  o.DisableSourceFeatures,
		MaxScanCounterparts:    o.MaxScanCounterparts,
		Trusted:                cl.trusted,
		SkipEvidence:           o.InitialWeights != nil,
	}
}

// detectors assembles the error-detection stack of Figure 2's module 1.
// viol, when non-nil, replaces the default constraint-violation detector
// (sessions substitute a delta-scoped one).
func (cl *Cleaner) detectors(ds *Dataset, constraints []*Constraint, viol *errordetect.Violations) ([]errordetect.Detector, error) {
	var out []errordetect.Detector
	if len(constraints) > 0 {
		if viol == nil {
			viol = &errordetect.Violations{Constraints: constraints}
		}
		out = append(out, viol)
	}
	if cl.opts.OutlierDetection {
		out = append(out, &errordetect.Outliers{}, &errordetect.CondOutliers{})
	}
	if len(cl.opts.MatchDependencies) > 0 {
		matcher, err := extdict.NewMatcher(ds, cl.opts.Dictionaries, cl.opts.MatchDependencies)
		if err != nil {
			return nil, err
		}
		out = append(out, &errordetect.Dictionary{Matcher: matcher})
	}
	return out, nil
}

// Clean repairs the dataset under the given denial constraints. The input
// dataset is not modified.
//
// Clean runs as a sharded pipeline: after one pass of error detection,
// statistics, and domain pruning, the noisy cells are split into
// independent shards — connected components of the conflict hypergraph
// when the model grounds correlation factors, load-balanced batches in
// the default independent-variable regime — and each shard is grounded
// and inferred on a pool of Options.Workers goroutines. Weights are
// learned once on the union of all shards' evidence cells and shared by
// every shard, so shard boundaries never change what is learned. Given a
// fixed Seed the result is deterministic regardless of Workers.
//
// For a stream of small changes to one dataset, NewSession's Reclean
// re-repairs only the affected scope instead of re-running Clean.
func (cl *Cleaner) Clean(ds *Dataset, constraints []*Constraint) (*Result, error) {
	res, _, err := cl.clean(ds, constraints, nil)
	return res, err
}

// clean is the shared pipeline behind Clean and Session.Reclean. With nil
// incremental inputs it behaves exactly like a from-scratch run.
func (cl *Cleaner) clean(ds *Dataset, constraints []*Constraint, inc *incrementalInputs) (*Result, *cleanArtifacts, error) {
	if len(constraints) == 0 && len(cl.opts.MatchDependencies) == 0 {
		return nil, nil, fmt.Errorf("holoclean: no repair signals (need constraints or match dependencies)")
	}
	start := time.Now()
	mem := beginMemProbe()
	o := cl.opts

	// One canonical tying-key store per run (per session lifetime for
	// recleans): every graph grounded below — the learning graph and all
	// shards — shares it, so a distinct key's string is allocated once.
	// Compilation's precomputed feature-name tables draw from it too.
	interner := factor.NewKeyInterner()
	if inc != nil && inc.interner != nil {
		interner = inc.interner
	}

	copts := cl.compileOptions()
	copts.Interner = interner
	if inc != nil {
		copts.Detection = inc.detection
		copts.Hypergraph = inc.hypergraph
		copts.Stats = inc.st
		copts.MaskedStats = inc.masked
		if inc.weights != nil {
			copts.SkipEvidence = true
		}
	} else {
		detectors, err := cl.detectors(ds, constraints, nil)
		if err != nil {
			return nil, nil, err
		}
		copts.Detectors = detectors
	}
	var prep *compile.Prepared
	if inc != nil && inc.prep != nil {
		prep = inc.prep
	} else {
		var err error
		prep, err = compile.Prepare(ds, constraints, copts)
		if err != nil {
			return nil, nil, err
		}
	}

	res := &Result{Marginals: make(map[Cell][]ValueProb)}
	res.Stats.NoisyCells = prep.Detection.NumNoisy()
	res.Stats.DetectTime = prep.Timings.Detect
	if inc != nil {
		res.Stats.DetectTime += inc.detectTime
	}

	workers := defaultWorkers(o.Workers)
	plan := planShards(prep, o.Variant.DCFactors, o.MaxComponentCells)
	execPlan := plan
	var reusedCells []int
	if inc != nil && inc.dirty != nil {
		// Dirty-set mode: only shards invalidated by the delta run; in
		// the independent-variable fast-path regime the dirty cells are
		// re-batched so clean cells in mixed batches are reused too.
		rebatch := !o.Variant.DCFactors && (o.ParallelInference || o.ExactInference)
		execPlan, reusedCells = splitPlan(plan, prep.Domains.Cells, inc.dirty, rebatch, inc.prevSigs)
	}
	res.Stats.Shards = len(execPlan)
	if r := len(plan) - len(execPlan); r > 0 {
		res.Stats.ShardsReused = r
	}
	for _, sh := range execPlan {
		if sh.split {
			res.Stats.SplitShards++
		}
	}
	if prep.Hypergraph != nil {
		comps := partition.Components(prep.Hypergraph)
		res.Stats.ComponentSizeHist = partition.SizeHistogram(comps)
		res.Stats.LargestComponentFrac = partition.LargestFrac(comps)
	}

	// Shared-index construction is part of compilation (it replaces the
	// per-shard index builds), so the compile clock starts before it.
	tg := time.Now()
	shared := ddlog.NewSharedIndex(prep.DS, prep.Domains)
	if inc != nil && inc.shared != nil {
		shared = inc.shared // rebound across the delta by the session
	}

	injected := o.InitialWeights
	if inc != nil && inc.weights != nil {
		injected = inc.weights
	}
	var learned map[string]float64
	var learnKeys []string
	if injected != nil {
		// Weight reuse: broadcast the supplied weights instead of
		// learning; the model-size stats come straight from the domains
		// (one query variable per noisy cell with a non-empty candidate
		// set, no evidence variables).
		learned = injected
		qv := 0
		for _, cands := range prep.Domains.Candidates {
			if len(cands) > 0 {
				qv++
			}
		}
		res.Stats.Variables, res.Stats.QueryVars = qv, qv
		res.Stats.CompileTime = prep.Timings.Compile + time.Since(tg)
	} else {
		// --- Learning (Section 2.2: ERM over the likelihood via SGD), on
		// the union of all shards' evidence cells so weights stay
		// globally tied ---
		learnG, err := groundLearning(prep, shared, interner, o.MaxScanCounterparts)
		if err != nil {
			return nil, nil, err
		}
		res.Stats.CompileTime = prep.Timings.Compile + time.Since(tg)
		res.Stats.Variables = learnG.Stats.Variables
		res.Stats.QueryVars = learnG.Stats.QueryVars
		res.Stats.EvidenceVars = learnG.Stats.EvidenceVars
		res.Stats.Factors = learnG.Graph.NumFactors()
		res.Stats.PaperFactors = learnG.Stats.PaperFactors

		tLearn := time.Now()
		epochs := o.LearningEpochs
		if epochs <= 0 {
			epochs = 10
		}
		lr := o.LearningRate
		if lr == 0 {
			lr = 0.1
		}
		learn.Learn(learnG.Graph, learn.Config{Epochs: epochs, LearningRate: lr, L2: o.L2, Seed: o.Seed})
		res.Stats.LearnTime = time.Since(tLearn)
		learned = learnedWeights(learnG.Graph)
		learnKeys = learnG.Graph.Weights.Keys
	}
	mem.sample() // phase boundary: compilation + learning done

	// --- Per-shard grounding and inference on the worker pool ---
	repaired := ds.Clone()
	runner := newShardRunner(prep, o, shared, interner, learned, res, repaired)
	for _, k := range learnKeys {
		runner.weightKeys[k] = true
	}
	if injected != nil {
		// The injected map is part of the model even when reused shards
		// never re-ground its keys; count it so Stats.Weights agrees
		// between an incremental reclean and the equivalent full run.
		for k := range injected {
			runner.weightKeys[k] = true
		}
	}
	// Carry cached results forward for the cells the delta never touched:
	// their model is provably identical (same row, same candidates, same
	// statistics contexts, same counterpart joins, same weights, same
	// chain seed), so their marginals and MAP repair are too. Cells whose
	// candidate set is empty had no variable in either run and need no
	// cache entry.
	for _, i := range reusedCells {
		c := prep.Domains.Cells[i]
		out, ok := inc.outcomes[c]
		if !ok {
			continue
		}
		dist := append([]ValueProb(nil), out.dist...)
		res.Marginals[c] = dist
		runner.outcomes[c] = cellOutcome{dist: dist, mapVal: out.mapVal, prob: out.prob}
		if out.mapVal != ds.Get(c.Tuple, c.Attr) {
			repaired.Set(c.Tuple, c.Attr, out.mapVal)
			res.Repairs = append(res.Repairs, Repair{
				Cell:        c,
				Attr:        ds.AttrName(c.Attr),
				Tuple:       c.Tuple,
				Old:         ds.GetString(c.Tuple, c.Attr),
				New:         ds.Dict().String(out.mapVal),
				Probability: out.prob,
			})
		}
	}
	if err := runner.runAll(execPlan, workers); err != nil {
		return nil, nil, err
	}
	res.Stats.CompileTime += runner.groundTime
	res.Stats.InferTime = runner.inferTime
	res.Stats.Weights = len(runner.weightKeys)
	res.LearnedWeights = make(map[string]float64, len(learned))
	for k, v := range learned {
		res.LearnedWeights[k] = v
	}

	sort.Slice(res.Repairs, func(i, j int) bool {
		if res.Repairs[i].Tuple != res.Repairs[j].Tuple {
			return res.Repairs[i].Tuple < res.Repairs[j].Tuple
		}
		return res.Repairs[i].Cell.Attr < res.Repairs[j].Cell.Attr
	})
	res.Repaired = repaired
	mem.finish(&res.Stats)
	res.Stats.TotalTime = time.Since(start)
	if tr := o.Tracer; tr != nil {
		tr.Observe("detect", res.Stats.DetectTime)
		tr.Observe("ground", runner.groundTime)
		if injected == nil { // a run that reused weights has no learn stage to report
			tr.Observe("learn", res.Stats.LearnTime)
		}
		tr.Observe("infer", runner.inferTime)
		tr.Observe("total", res.Stats.TotalTime)
	}
	return res, &cleanArtifacts{prep: prep, shared: shared, interner: interner, runner: runner, plan: plan}, nil
}
