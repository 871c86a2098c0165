// Package holoclean is a from-scratch Go implementation of HoloClean
// (Rekatsinas, Chu, Ilyas, Ré — "HoloClean: Holistic Data Repairs with
// Probabilistic Inference", VLDB 2017). HoloClean unifies three families
// of data-repairing signals — integrity constraints (denial constraints),
// external dictionaries matched through matching dependencies, and
// quantitative statistics of the dirty dataset itself — by compiling them
// into a single probabilistic program. Grounding that program yields a
// factor graph; weight learning and inference over the graph — closed-form
// where cells are independent, Gibbs sampling where they are correlated —
// produce a marginal distribution per noisy cell, and repairs are the
// maximum a posteriori values.
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
// clean-cell evidence and infers marginals (closed-form under that
// relaxation, which leaves cells independent; Gibbs sampling otherwise).
package holoclean

import (
	"fmt"
	"io"
	"maps"
	"runtime/metrics"
	"slices"
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
	"holoclean/internal/pruning"
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
// from DefaultOptions, the only source of defaults: every field is taken
// literally, so a zero weight, prior, threshold or budget means zero — an
// ablation that zeroes a field measures exactly that.
type Options struct {
	// Tau is the domain-pruning threshold τ of Algorithm 2. Zero prunes
	// nothing by co-occurrence: every value that co-occurs with any of the
	// tuple's other values stays a candidate.
	Tau float64
	// MaxCandidates caps each noisy cell's candidate set (0 = uncapped).
	MaxCandidates int
	// FullDomain disables Algorithm 2 (every value of the attribute's
	// active domain becomes a candidate) — the no-pruning ablation.
	FullDomain bool
	// Variant selects the denial-constraint encoding.
	Variant Variant
	// MinimalityWeight is the fixed prior toward keeping initial values;
	// zero grounds the minimality factors with no pull (the no-minimality
	// ablation).
	MinimalityWeight float64
	// DCWeight is the fixed soft weight of Algorithm 1 factors; zero makes
	// them inert.
	DCWeight float64
	// EvidenceSample bounds the clean cells sampled as labeled examples;
	// zero samples none (confirmed feedback cells are evidence regardless).
	EvidenceSample int
	// OutlierDetection adds the categorical-outlier error detector on
	// top of constraint-violation detection.
	OutlierDetection bool
	// Dictionaries and MatchDependencies supply external data.
	Dictionaries      []*Dictionary
	MatchDependencies []*MatchDependency
	// DictionaryPrior is the initial (learnable) reliability weight w(k)
	// of dictionary match factors; learning starts from zero when it is
	// zero.
	DictionaryPrior float64
	// RelaxedDCPrior is the initial (learnable) weight of relaxed
	// denial-constraint features; likewise literal.
	RelaxedDCPrior float64
	// DisableCooccurFeatures turns off the quantitative-statistics signal
	// (for ablations).
	DisableCooccurFeatures bool
	// DisableSourceFeatures turns off provenance features.
	DisableSourceFeatures bool
	// LearningEpochs, LearningRate, L2 configure SGD (Section 2.2's ERM).
	// Zero epochs, or a zero rate, leave every weight at its prior.
	LearningEpochs int
	LearningRate   float64
	L2             float64
	// GibbsBurnIn is the number of sweeps the sampler discards before
	// collecting marginal statistics. Zero means zero sweeps — an explicit
	// no-burn-in run — and negative values clamp to zero; start from
	// DefaultOptions for the paper's budget of 10. Like GibbsSamples it
	// applies to correlated shards only: a shard whose query variables are
	// independent (every shard of the DC Feats variants) is solved in
	// closed form and never sampled.
	GibbsBurnIn int
	// GibbsSamples is the number of collected sweeps on correlated shards;
	// values <= 0 fall back to the default 50 (zero samples would leave
	// marginals undefined).
	GibbsSamples int
	// ParallelInference has no effect.
	//
	// Deprecated: independent query variables, the only regime it applied
	// to, are no longer sampled.
	ParallelInference bool
	// MaxScanCounterparts caps DC grounding when no equality predicate
	// can index the join (0 = unlimited).
	MaxScanCounterparts int
	// InitialWeights, when non-nil, replaces weight learning: the map
	// (tying key → weight, e.g. a previous run's Result.LearnedWeights)
	// is broadcast to every shard exactly as freshly learned weights
	// would be, and evidence sampling, learning-graph grounding, and SGD
	// are all skipped — what a Session does with its own weights on every
	// pass that does not relearn. It is the reference configuration for
	// verifying that an incremental reclean matches a from-scratch Clean
	// bit for bit.
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
	// MaxComponentCells, when positive, splits conflict components whose
	// cell count exceeds it into tuple-aligned sub-shards, bounding the
	// largest grounding and sampling unit (and therefore per-shard memory
	// and the pipeline's critical path) on skewed datasets where one
	// giant component dominates. Cut correlations are partially restored
	// by boundary-factor damping (see boundaryDamp). 0 — the default —
	// never splits: every component is inferred whole and exactly.
	MaxComponentCells int
	// Seed drives every stochastic component.
	Seed int64
	// Tracer, when non-nil, receives the duration of every stage of every
	// pipeline pass (diff, detect, stats, prepare, invalidate, plan,
	// learn, ground, infer, total) — the same values RunStats reports;
	// the serve tier points it at the /metrics histograms. A nil tracer
	// is free: span calls are allocation-free no-ops, so the zero-alloc
	// warmed-sweep guarantee is unaffected. Tracing never influences
	// the computation — results stay byte-identical per seed.
	Tracer *telemetry.Tracer
}

// DefaultOptions mirrors the paper's defaults: τ=0.5, the DC Feats
// variant, and modest learning/sampling budgets.
func DefaultOptions() Options {
	return Options{
		Tau:              0.5,
		Variant:          VariantDCFeats,
		MinimalityWeight: 0.5,
		DCWeight:         4.0,
		EvidenceSample:   2000,
		DictionaryPrior:  2.0,
		RelaxedDCPrior:   1.5,
		LearningEpochs:   10,
		LearningRate:     0.1,
		L2:               1e-4,
		GibbsBurnIn:      10,
		GibbsSamples:     50,
		Seed:             1,
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
// coincides with the monolithic grounding. DetectTime covers change
// diffing and detection; CompileTime statistics, pruning, invalidation,
// planning and all grounding; TotalTime the whole pass. CompileTime and
// InferTime sum per-shard grounding and inference durations, so with
// Workers > 1 they are CPU-style totals that can exceed TotalTime.
type RunStats struct {
	NoisyCells int
	// InertCells counts the noisy cells whose pruned domain holds a single
	// candidate — detected, but with nothing to choose between at this τ
	// (the candidate is the observed value, or the one fill of an empty
	// cell). Their posterior is 1 by construction, so they ground no factors;
	// the share is both what a pass saves and the recall ceiling τ imposes.
	InertCells   int
	Variables    int
	QueryVars    int
	EvidenceVars int
	// Factors counts the factors materialized: the learning graph's plus
	// every executed shard's. Shards are grounded with the weights they
	// infer with and leave out unary and soft factors of weight 0, which
	// add nothing to any score; PaperFactors still counts those groundings.
	Factors      int
	PaperFactors int64
	// Weights counts the distinct tying keys the pass's graphs materialized
	// or its weight broadcast carries.
	Weights int

	// Shards is the number of independent shards the pipeline executed;
	// ExactShards of them had no query-side correlation and were inferred
	// in closed form rather than sampled.
	Shards      int
	ExactShards int
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
	// regime MaxComponentCells exists for). Zero when there are no
	// components.
	LargestComponentFrac float64
	// ShardsReused counts the shards of the full plan whose cached
	// results an incremental Session.Reclean carried forward instead of
	// re-executing. Always zero for a plain Clean and for a DC Factors
	// session, whose Reclean re-executes its whole plan.
	ShardsReused int

	// AllocBytes and AllocObjects are the cumulative heap bytes and
	// objects allocated while the pass executed, measured as deltas of the
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
}

// New returns a Cleaner.
func New(opts Options) *Cleaner { return &Cleaner{opts: opts} }

// requireSignals rejects a task that has nothing to repair by.
func requireSignals(constraints []*Constraint, o Options) error {
	if len(constraints) == 0 && len(o.MatchDependencies) == 0 {
		return fmt.Errorf("holoclean: no repair signals (need constraints or match dependencies)")
	}
	return nil
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
	return newPass(cl.opts, ds, constraints, nil).run(nil)
}

// A pass is one run of the pipeline of Figure 2, as the stages
//
//	diff → stats → detect → prepare → invalidate → plan → learn → infer
//
// each of which fills in its artifact below and is clocked once (see
// stage). Full clean or incremental reclean is a property of a pass's
// input, not of its driver: with no previous pass, diff and invalidate
// have nothing to do and every later stage computes from scratch; with
// one, each stage recomputes only what the delta invalidated. Every
// entry point — Cleaner.Clean, CleanWithFeedback, Session.Clean, Reclean,
// Feedback, RestoreSession — runs exactly this.
type pass struct {
	opts        Options
	ds          *Dataset
	constraints []*Constraint
	// trusted are user-confirmed cells: clean by fiat, labeled evidence
	// whenever weights are learned.
	trusted []dataset.Cell
	// weights are the broadcast by tying key, the boundary form
	// LearnedWeights and snapshots carry (every injected key included, even
	// one no factor names). Nil on entry: the learn stage fills them in;
	// non-nil: evidence sampling, learning-graph grounding and SGD are all
	// skipped.
	weights map[string]float64
	// ties are weights resolved into the pass's ties, for every grounding
	// of the pass (learn, or resolveWeights); unresolved are the keys no
	// tie parses from. A Reclean reuses both with the weights.
	ties       *factor.Weights
	unresolved []string

	// The artifacts a Session's next pass diffs against or carries forward
	// — all that Session.adopt retains of a finished pass.
	n          int                   // the tuple count the pass cleaned
	st, masked *stats.Stats          // stats: raw; prepare: clean-cell (nil when cooc features are off); delta-maintained in place
	viol       []violation.Violation // detect: carried forward by scoped detection
	detection  *errordetect.Result   // detect: the noisy cells and their dense mask
	domains    *pruning.Domains      // prepare: pruned candidate sets
	shared     *ddlog.SharedIndex    // plan (invalidate rebinds a previous pass's)
	interner   *factor.KeyInterner   // the name table of every grounding's ties
	outcomes   []cellOutcome         // infer: per-cell marginal, MAP label and unlearned ties, aligned with domains.Cells; nil unless keep

	*working
}

// working is the state that dies with a pass: the link to the previous
// one, the delta sets, compilation state, the Result under construction.
type working struct {
	prev   *pass                   // nil: everything is invalid
	before map[int][]dataset.Value // the rows prev cleaned in the slots written since
	res    *Result

	changed     map[int][]int           // diff: per slot whose content differs from prev's, the attributes that moved (every one for appended and vacated slots)
	cols        *stats.Columns          // stats: the column encoding of a full pass, which prepare's masked collection reuses
	prevQuasi   []bool                  // stats: quasi-key classification before the delta
	stDelta     *stats.Delta            // stats: raw counters the delta touched
	hyper       *violation.Hypergraph   // detect
	matched     []extdict.Match         // detect: the dictionary matches (MatchDependencies only)
	matches     map[int][]extdict.Match // prepare: the same matches by tuple, which the shard databases take
	maskedDelta *stats.Delta            // prepare: clean-cell counters the delta touched (nil without masked)
	prep        *compile.Prepared       // prepare
	dirty       map[int]bool            // invalidate: tuples that must re-execute; nil executes every shard
	exec        []shard                 // plan: the shards that run
	reused      []int                   // plan: cell indices whose cached outcome carries forward
	keep        bool                    // infer: the pass is adopted and carriesOutcomes, so outcomes outlive it and the Result takes copies
	learnGround time.Duration           // learn: learning-graph grounding, booked with the shards'
	unlearned   map[factor.Tie]bool     // learn, infer: ties the pass's graphs (and reused cells) named that ties lacks (RunStats.Weights)
}

// newPass starts a full pass over ds: no previous pass, weights learned
// unless Options.InitialWeights injects them.
func newPass(o Options, ds *Dataset, constraints []*Constraint, trusted []dataset.Cell) *pass {
	return &pass{
		opts:        o,
		ds:          ds,
		constraints: constraints,
		trusted:     trusted,
		weights:     o.InitialWeights,
		n:           ds.NumTuples(),
		// Compilation, the learning graph and every shard graph name
		// through it (recleans through the previous pass's), so a name has
		// one id in every tie of the pass and of the passes after it.
		interner: factor.NewKeyInterner(),
		working: &working{
			res:       &Result{},
			unlearned: make(map[factor.Tie]bool),
		},
	}
}

// timed runs fn on the pipeline's one wall clock.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// observe books a stage duration into both places that report it: the
// RunStats field it belongs to and the tracer span of the stage's name.
func (p *pass) observe(name string, into *time.Duration, d time.Duration) {
	*into += d
	p.opts.Tracer.Observe(name, d)
}

// stage runs one pipeline stage and books its wall time.
func (p *pass) stage(name string, into *time.Duration, fn func() error) error {
	d, err := timed(fn)
	p.observe(name, into, d)
	return err
}

// compile runs the stages diff … plan: everything a pass does before
// weights enter — the model Clean infers with and Explain reports.
//
// RunStats.DetectTime is diff + detect (the stats stage between them is
// booked with compilation); CompileTime is stats + prepare +
// invalidate + plan + every grounding (learning graph and shards), so with
// one worker the four phase times never exceed TotalTime.
func (p *pass) compile() error {
	if err := requireSignals(p.constraints, p.opts); err != nil {
		return err
	}
	st := &p.res.Stats
	for _, s := range []struct {
		name string
		into *time.Duration
		fn   func() error
	}{
		{"diff", &st.DetectTime, p.diffRows},
		{"stats", &st.CompileTime, p.collectStats},
		{"detect", &st.DetectTime, p.detectErrors},
		{"prepare", &st.CompileTime, p.prepareModel},
		{"invalidate", &st.CompileTime, p.invalidateTuples},
		{"plan", &st.CompileTime, p.planExecution},
	} {
		if err := p.stage(s.name, s.into, s.fn); err != nil {
			return err
		}
	}
	return nil
}

// run executes the pass. adopt, when non-nil, receives the finished pass
// inside the total clock — a Session keeps it there; Cleaner drops it.
func (p *pass) run(adopt func(*pass)) (*Result, error) {
	res := p.res
	st := &res.Stats
	total, err := timed(func() error {
		mem := beginMemProbe()
		if err := p.compile(); err != nil {
			return err
		}
		if p.weights == nil {
			if err := p.learnWeights(); err != nil {
				return err
			}
		} else {
			p.resolveWeights()
		}
		st.Variables = st.QueryVars + st.EvidenceVars
		mem.sample() // phase boundary: compilation + learning done
		p.keep = adopt != nil && p.carriesOutcomes()
		if err := p.inferRepairs(); err != nil {
			return err
		}
		mem.finish(st)
		if adopt != nil {
			adopt(p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.observe("total", &st.TotalTime, total)
	return res, nil
}

// detectErrors is Figure 2's module 1, a function of the rows, the diff
// and the raw statistics. Constraint violations are scoped to the changed
// tuples when there is a previous pass (violations among untouched tuples
// carry forward) and detected in full otherwise; the statistics-based
// detectors read the stats stage's counters and scan nothing themselves;
// the dictionary detector reads the matches applied here, once per pass
// for prepare too.
func (p *pass) detectErrors() error {
	o := p.opts
	var detectors []errordetect.Detector
	var viol *errordetect.Violations
	if len(p.constraints) > 0 {
		viol = &errordetect.Violations{Constraints: p.constraints}
		if p.prev != nil {
			viol.Prev, viol.Changed = p.prev.viol, make(map[int]bool, len(p.changed))
			for t := range p.changed {
				viol.Changed[t] = true
			}
		}
		detectors = append(detectors, viol)
	}
	if o.OutlierDetection {
		detectors = append(detectors, &errordetect.Outliers{Stats: p.st}, &errordetect.CondOutliers{Stats: p.st})
	}
	if len(o.MatchDependencies) > 0 {
		var err error
		if p.matched, err = matchDictionaries(o, p.ds); err != nil {
			return err
		}
		detectors = append(detectors, &errordetect.Dictionary{Matches: p.matched})
	}
	var err error
	if p.detection, err = errordetect.Run(p.ds, detectors...); err != nil {
		return err
	}
	if viol != nil {
		p.hyper = viol.LastHypergraph
		p.viol = p.hyper.Violations
	}
	return nil
}

// matchDictionaries applies the match dependencies of o to ds: every
// dictionary suggestion for every tuple, in the matcher's order.
func matchDictionaries(o Options, ds *Dataset) ([]extdict.Match, error) {
	matcher, err := extdict.NewMatcher(ds, o.Dictionaries, o.MatchDependencies)
	if err != nil {
		return nil, err
	}
	return matcher.Apply(ds), nil
}

// compileOptions maps the pass's options and injected state onto the
// compiler's.
func (p *pass) compileOptions() compile.Options {
	o := p.opts
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
		Trusted:                p.trusted,
		Detection:              p.detection,
		Hypergraph:             p.hyper,
		Matches:                p.matched,
		Stats:                  p.st,
		MaskedStats:            p.masked,
		Interner:               p.interner,
		// Evidence cells exist to be learned from.
		SkipEvidence: p.weights != nil,
	}
}

// prepareModel is Figure 2's module 2 short of grounding: the clean-cell
// statistics, full domain pruning over the noisy set, dictionary matching,
// evidence sampling when weights will be learned, and the rule program — a
// pure function of the detection result and statistics the earlier stages
// produced.
func (p *pass) prepareModel() error {
	p.maskStats()
	prep, err := compile.Prepare(p.ds, p.constraints, p.compileOptions())
	if err != nil {
		return err
	}
	p.prep, p.domains = prep, prep.Domains
	p.matches = make(map[int][]extdict.Match)
	for _, m := range prep.Matches {
		p.matches[m.Cell.Tuple] = append(p.matches[m.Cell.Tuple], m)
	}
	p.res.Stats.NoisyCells = p.detection.NumNoisy()
	// One query variable per noisy cell with a candidate; a single
	// candidate makes it inert.
	for _, cands := range p.domains.Candidates {
		if len(cands) > 0 {
			p.res.Stats.QueryVars++
		}
		if len(cands) == 1 {
			p.res.Stats.InertCells++
		}
	}
	return nil
}

// planExecution assigns every noisy cell to a shard and, when the
// invalidate stage produced a dirty set (the independent-variable regime
// only), re-batches the dirty cells and carries every other cell forward.
func (p *pass) planExecution() error {
	o, st := p.opts, &p.res.Stats
	var comps [][]int
	if p.hyper != nil {
		comps = partition.Components(p.hyper)
		st.ComponentSizeHist = partition.SizeHistogram(comps)
		st.LargestComponentFrac = partition.LargestFrac(comps)
	}
	plan := planShards(p.domains, comps, o.Variant.DCFactors, o.MaxComponentCells)
	p.exec = plan
	if p.dirty != nil {
		p.exec, p.reused = splitPlan(p.domains.Cells, p.dirty)
	}
	st.Shards, st.ShardsReused = len(p.exec), max(0, len(plan)-len(p.exec))
	for _, sh := range p.exec {
		if sh.split {
			st.SplitShards++
		}
	}
	// The index fills lazily while graphs ground, replacing per-shard index
	// builds; a previous pass's was rebound by invalidate. Every grounding
	// of the pass copies the database wired here.
	if p.shared == nil {
		p.shared = ddlog.NewSharedIndex(p.ds, p.domains)
	}
	p.prep.DB.Shared, p.prep.DB.Interner = p.shared, p.interner
	return nil
}

// learnWeights is Section 2.2's ERM over the likelihood via SGD, on the
// union of all shards' evidence cells so weights stay globally tied.
// Grounding the learning graph is booked with the shards' grounding; the
// learn stage proper is the SGD.
func (p *pass) learnWeights() error {
	o, st := p.opts, &p.res.Stats
	var learnG *ddlog.Grounded
	var err error
	p.learnGround, err = timed(func() error {
		learnG, err = groundLearning(p.prep, o.MaxScanCounterparts)
		return err
	})
	if err != nil {
		return err
	}
	st.EvidenceVars = learnG.Stats.EvidenceVars
	st.Factors = learnG.Graph.NumFactors()
	st.PaperFactors = learnG.Stats.PaperFactors

	return p.stage("learn", &st.LearnTime, func() error {
		learn.Learn(learnG.Graph, learn.Config{Epochs: o.LearningEpochs, LearningRate: o.LearningRate, L2: o.L2, Seed: o.Seed})
		p.weights, p.ties = learnedWeights(learnG.Graph)
		p.countKeys(learnG.Graph.Weights)
		return nil
	})
}

// resolveWeights resolves injected weights into the pass's ties, once for
// every grounding of the pass. A key that parses to no tie — malformed, or
// naming a name the model never registered — ties no factor, as its string
// matched no factor's key. A Reclean starts from its previous pass's
// broadcast and parses only that pass's unresolved keys again: the pass
// may have registered a name one of them names (a dictionary's first
// match).
func (p *pass) resolveWeights() {
	todo := p.unresolved
	if p.ties == nil {
		p.ties, todo = factor.NewWeights(), slices.Collect(maps.Keys(p.weights))
	}
	keys := ddlog.Keys{Names: p.interner}
	p.unresolved = nil
	for _, k := range todo {
		if t, ok := keys.Parse(k); ok {
			p.ties.Tie(t, p.weights[k], false)
		} else {
			p.unresolved = append(p.unresolved, k)
		}
	}
}

// countKeys records the ties of a grounded graph's weights for
// RunStats.Weights and reports, by weight id, which of them the broadcast
// lacks: the broadcast counts whole, even when reused shards never
// re-ground its keys, so only the ties it lacks (fixed weights, and priors
// only query cells name) need a set, to which each reused cell adds its
// own (cellOutcome.unlearned). The count then agrees between an
// incremental pass and the equivalent full one.
func (p *pass) countKeys(w *factor.Weights) (lacks []bool) {
	lacks = make([]bool, w.Len())
	for i, t := range w.Ties {
		if _, ok := p.ties.Lookup(t); !ok {
			p.unlearned[t], lacks[i] = true, true
		}
	}
	return lacks
}

// inferRepairs fills the pass's outcome table — the cached outcomes of
// reused cells carried forward, every executing shard grounded and
// inferred on the worker pool into its own cells' slots — and assembles
// the Result from it in cell order (tuple, then attribute).
func (p *pass) inferRepairs() error {
	ds, res := p.ds, p.res
	// Carry cached results forward for the cells the delta never touched:
	// their model is provably identical (same row, same candidates, same
	// statistics contexts, same counterpart joins, same weights, same
	// chain seed), so their marginals and MAP repair are too. A reused
	// cell was in the previous pass's domains with the same candidates
	// (markDomainMoves), so it has a slot there.
	p.outcomes = make([]cellOutcome, len(p.domains.Cells))
	for _, i := range p.reused {
		out := p.prev.outcomes[p.prev.domains.Index(p.domains.Cells[i])]
		p.outcomes[i] = out
		for _, t := range out.unlearned { // RunStats.Weights, as the full pass counts it
			p.unlearned[t] = true
		}
	}
	runner := &shardRunner{pass: p}
	if err := runner.runAll(p.exec, defaultWorkers(p.opts.Workers)); err != nil {
		return err
	}
	// Per-shard clocks are summed across workers, so with Workers > 1
	// these two are CPU-style totals that can exceed the wall clock.
	p.observe("ground", &res.Stats.CompileTime, p.learnGround+runner.groundTime)
	p.observe("infer", &res.Stats.InferTime, runner.inferTime)
	res.Stats.Weights = len(p.weights) + len(p.unlearned)
	res.LearnedWeights = maps.Clone(p.weights)

	// A cell with no candidate had no variable and keeps its value. The
	// caller owns the Result's marginal slices; a kept table keeps its own.
	res.Repaired, res.Marginals = ds.Clone(), make(map[Cell][]ValueProb, res.Stats.QueryVars)
	for i, out := range p.outcomes {
		if out.dist == nil {
			continue
		}
		c, dist := p.domains.Cells[i], out.dist
		if p.keep {
			dist = slices.Clone(dist)
		}
		res.Marginals[c] = dist
		if out.mapVal != ds.Get(c.Tuple, c.Attr) {
			res.Repaired.Set(c.Tuple, c.Attr, out.mapVal)
			res.Repairs = append(res.Repairs, Repair{
				Cell:        c,
				Attr:        ds.AttrName(c.Attr),
				Tuple:       c.Tuple,
				Old:         ds.GetString(c.Tuple, c.Attr),
				New:         ds.Dict().String(out.mapVal),
				Probability: out.dist[0].P,
			})
		}
	}
	if !p.keep {
		p.outcomes = nil
	}
	return nil
}
