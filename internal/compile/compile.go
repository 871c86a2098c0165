// Package compile implements HoloClean's compilation module (Section 4):
// given the dirty dataset, repairing constraints Σ, and optional external
// dictionaries, it materializes the DDlog relations of Section 4.1,
// and translates every repair signal into inference rules (Section 4.2,
// Algorithm 1, and the Section 5.2 relaxation) — the probabilistic program
// and database that ddlog.Ground turns into factor graphs.
package compile

import (
	"fmt"
	"iter"
	"math/rand"
	"strconv"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/ddlog"
	"holoclean/internal/errordetect"
	"holoclean/internal/extdict"
	"holoclean/internal/factor"
	"holoclean/internal/fusion"
	"holoclean/internal/partition"
	"holoclean/internal/pruning"
	"holoclean/internal/stats"
	"holoclean/internal/violation"
)

// Variant selects how denial constraints enter the model — the axis of
// Figure 5.
type Variant struct {
	// DCFactors grounds Algorithm 1's correlation factors.
	DCFactors bool
	// DCFeatures grounds the Section 5.2 relaxation (independent
	// variables, learnable per-rule weights).
	DCFeatures bool
	// Partition restricts DC-factor grounding to Algorithm 3 groups.
	Partition bool
}

// The five variants evaluated in Figure 5. DCFeats is the configuration
// used for the headline results (Section 6.1: "denial constraints in
// HoloClean are relaxed to features…; no partitioning is used").
var (
	DCFactorsOnly         = Variant{DCFactors: true}
	DCFactorsPartitioned  = Variant{DCFactors: true, Partition: true}
	DCFeats               = Variant{DCFeatures: true}
	DCFeatsFactors        = Variant{DCFactors: true, DCFeatures: true}
	DCFeatsFactorsPartTwo = Variant{DCFactors: true, DCFeatures: true, Partition: true}
)

// Name renders the variant with the paper's Figure 5 labels.
func (v Variant) Name() string {
	switch v {
	case DCFactorsOnly:
		return "DC Factors"
	case DCFactorsPartitioned:
		return "DC Factors + partitioning"
	case DCFeats:
		return "DC Feats"
	case DCFeatsFactors:
		return "DC Feats + DC Factors"
	case DCFeatsFactorsPartTwo:
		return "DC Feats + DC Factors + partitioning"
	}
	return fmt.Sprintf("custom(factors=%v feats=%v part=%v)", v.DCFactors, v.DCFeatures, v.Partition)
}

// Options configures compilation. Every value is taken as given — zero
// means zero, never "use the default"; the cleaner's DefaultOptions is the
// only source of defaults.
type Options struct {
	// Tau is Algorithm 2's pruning threshold; the paper sweeps
	// {0.3, 0.5, 0.7, 0.9}.
	Tau float64
	// MaxCandidates caps per-cell domains (0 = uncapped).
	MaxCandidates int
	// FullDomain disables Algorithm 2 (no-pruning ablation).
	FullDomain bool
	// Variant selects the DC encoding.
	Variant Variant
	// MinimalityWeight is the fixed positive prior on keeping initial
	// values (Section 4.2, "Minimality Priors").
	MinimalityWeight float64
	// DCWeight is the fixed soft-constraint weight w of Algorithm 1.
	DCWeight float64
	// MaxEvidence bounds the sampled clean cells used as labeled
	// examples for weight learning.
	MaxEvidence int
	// Seed drives evidence sampling.
	Seed int64
	// MatchDeps wire the external-data signal; Dictionaries, what they
	// match against, are read by the matcher, not here (see Matches).
	Dictionaries []*extdict.Dictionary
	MatchDeps    []*extdict.MatchDependency
	// DisableCooccurFeatures removes the quantitative-statistics signal:
	// the HasFeature co-occurrence indicators and the real-valued
	// frequency and co-occurrence features.
	DisableCooccurFeatures bool
	// DictionaryPrior is the initial reliability weight of dictionary
	// match factors (still adjusted by learning).
	DictionaryPrior float64
	// RelaxedDCPrior is the initial weight of relaxed denial-constraint
	// features (still adjusted by learning).
	RelaxedDCPrior float64
	// DisableSourceFeatures removes the provenance signal — the per-source
	// indicators and source-reliability fusion — that is otherwise wired
	// whenever the dataset carries sources.
	DisableSourceFeatures bool
	// MaxScanCounterparts caps index-less DC grounding (see ddlog.Config).
	MaxScanCounterparts int
	// Trusted cells are user-confirmed values (Section 2.2's feedback
	// loop): they are removed from the noisy set regardless of detection
	// and force-included as evidence, so learning treats them as labels.
	Trusted []dataset.Cell

	// Detection is the error-detection result (Figure 2, module 1) the
	// model is compiled over — required; Hypergraph is the matching
	// conflict hypergraph, nil when the detector stack held no
	// denial-constraint detector. Compilation never detects: the cleaning
	// pipeline runs its detector stack (scoped to a delta in sessions) and
	// hands the result in.
	Detection  *errordetect.Result
	Hypergraph *violation.Hypergraph
	// Matches are ds's dictionary matches under MatchDeps, required
	// (though possibly empty) when MatchDeps is set: the pipeline applies
	// the matcher once, for its dictionary detector and for these domains.
	Matches []extdict.Match
	// Stats are the dataset's statistics (required) and MaskedStats the
	// clean-cell statistics, which discount co-occurrences where either
	// cell was flagged noisy (required unless DisableCooccurFeatures).
	// Compilation never collects them: the pipeline does, once, and
	// incremental sessions delta-maintain both with stats.Apply.
	Stats       *stats.Stats
	MaskedStats *stats.Stats
	// SkipEvidence skips clean-cell evidence sampling. Safe only when no
	// learning will run on the resulting model (weights are injected),
	// since the per-shard graphs never hold evidence variables anyway.
	SkipEvidence bool
	// Interner is the name table of the model's weight ties (rule,
	// dictionary and source names; see ddlog.Keys), which Prepared.DB
	// carries to every grounding. A session passes the same one to each
	// pass, so a name keeps its id across passes; nil uses a fresh one.
	Interner *factor.KeyInterner
}

// Prepared is the compilation state just before grounding: every
// materialized relation of Section 4.1 plus the generated program, but no
// factor graph yet. The sharded pipeline prepares once and then grounds
// the program many times — once per connected-component shard and once
// for the learning graph — against narrowed copies of DB.
type Prepared struct {
	DS      *dataset.Dataset
	Bounds  []*dc.Bound
	Domains *pruning.Domains
	Matches []extdict.Match
	Groups  []partition.Group
	Program *ddlog.Program
	// DB is the fully wired database for a whole-relation grounding; shard
	// runners copy it and narrow Domains/Evidence/Matches per shard.
	DB *ddlog.Database
	// RelationWide reports that a featurizer reading the whole relation was
	// wired (source fusion: every tuple's vote moves every source's
	// accuracy), so no part of a previous pass's model survives a delta.
	RelationWide bool

	cooccur *cooccur // the statistics featurizer; nil when co-occurrence features are off
}

// InternLabels interns into ds's dictionary the labels a model adds to
// the relation's own values, in the order Prepare interns them, and
// returns the suggestions' ids: the constraint constants, so bound
// predicates compare labels, then every match suggestion, which joins its
// cell's domain (Example 3). Nothing else a pass runs interns a string.
func InternLabels(ds *dataset.Dataset, constraints []*dc.Constraint, matches []extdict.Match) []dataset.Value {
	for _, c := range constraints {
		for _, p := range c.Predicates {
			if p.Right.IsConst {
				ds.Dict().Intern(p.Right.Const)
			}
		}
	}
	suggested := make([]dataset.Value, len(matches))
	for i, m := range matches {
		suggested[i] = ds.Dict().Intern(m.Value)
	}
	return suggested
}

// Prepare compiles the model short of grounding it: domain pruning,
// dictionary matching, partitioning, evidence sampling and rule generation
// — a pure function of the dataset, the constraints, and the detection
// result and statistics in opts, which it requires rather than derives.
func Prepare(ds *dataset.Dataset, constraints []*dc.Constraint, opts Options) (*Prepared, error) {
	detection, st, masked := opts.Detection, opts.Stats, opts.MaskedStats
	switch {
	case detection == nil:
		return nil, fmt.Errorf("compile: Options.Detection is required")
	case st == nil:
		return nil, fmt.Errorf("compile: Options.Stats is required")
	case masked == nil && !opts.DisableCooccurFeatures:
		return nil, fmt.Errorf("compile: Options.MaskedStats is required by co-occurrence features")
	case opts.Matches == nil && len(opts.MatchDeps) > 0:
		return nil, fmt.Errorf("compile: Options.Matches is required by match dependencies")
	}
	suggested := InternLabels(ds, constraints, opts.Matches)
	bounds, err := dc.BindAll(constraints, ds)
	if err != nil {
		return nil, err
	}
	// A constraint's name keys its rules' tying keys (dc|name,
	// rdc|name@…): two constraints of one name would share learned weights.
	firstOf := make(map[string]int, len(bounds))
	for ci, b := range bounds {
		name := ruleName(ci, b)
		if first, dup := firstOf[name]; dup {
			return nil, fmt.Errorf("compile: constraints %d and %d are both named %q", first+1, ci+1, name)
		}
		firstOf[name] = ci
	}
	out := &Prepared{DS: ds, Bounds: bounds}

	// User-confirmed cells are clean by fiat.
	noisy := detection.Noisy
	var trusted map[dataset.Cell]bool
	if len(opts.Trusted) > 0 {
		trusted = make(map[dataset.Cell]bool, len(opts.Trusted))
		for _, c := range opts.Trusted {
			trusted[c] = true
		}
		kept := make([]dataset.Cell, 0, len(noisy))
		for _, c := range noisy {
			if !trusted[c] {
				kept = append(kept, c)
			}
		}
		noisy = kept
	}

	domains := pruning.Compute(ds, st, noisy, pruning.Config{
		Tau:           opts.Tau,
		MaxCandidates: opts.MaxCandidates,
		FullDomain:    opts.FullDomain,
	})
	out.Domains = domains

	// External data: admit the matching dependencies' suggestions into
	// the domains of noisy cells (Example 3).
	out.Matches = opts.Matches
	for i, m := range out.Matches {
		domains.Inject(m.Cell, suggested[i])
	}

	// Partitioning (Algorithm 3) follows the conflict hypergraph.
	if opts.Variant.Partition && opts.Hypergraph != nil {
		out.Groups = partition.Groups(opts.Hypergraph)
	}

	var evidence []dataset.Cell
	var evidenceDomains [][]dataset.Value
	if !opts.SkipEvidence {
		evidence, evidenceDomains = sampleEvidence(ds, st, noisy, trusted, opts)
	}

	names := opts.Interner
	if names == nil {
		names = factor.NewKeyInterner()
	}
	db := &ddlog.Database{
		DS:              ds,
		Bounds:          bounds,
		Domains:         domains,
		Evidence:        evidence,
		EvidenceDomains: evidenceDomains,
		Matches:         out.Matches,
		DictPrior:       opts.DictionaryPrior,
		RelaxedDCPrior:  opts.RelaxedDCPrior,
		Interner:        names,
	}
	if len(out.Groups) > 0 {
		// Densify the Algorithm 3 groups once; every shard grounder of
		// the run shares the table read-only.
		db.GroupIndex = ddlog.BuildGroupIndex(len(bounds), ds.NumTuples(), out.Groups)
	}
	if !opts.DisableCooccurFeatures || (!opts.DisableSourceFeatures && ds.HasSources()) {
		db.Features = featureFunc(ds, opts, names)
	}
	var softs []func(dataset.Cell, []int32, *ddlog.SoftBuf)
	if !opts.DisableCooccurFeatures {
		out.cooccur = newCooccur(ds, st, masked)
		softs = append(softs, out.cooccur.features)
	}
	if !opts.DisableSourceFeatures && ds.HasSources() {
		// Source-reliability fusion [35]: tuples reporting the same entity
		// attribute vote with accuracy-weighted shares.
		votes := fusion.Estimate(ds, bounds, 0)
		softs = append(softs, fusionFeatureFunc(votes))
		out.RelationWide = true
	}
	if len(softs) > 0 {
		db.SoftFeatures = func(c dataset.Cell, dom []int32, buf *ddlog.SoftBuf) {
			for _, f := range softs {
				f(c, dom, buf)
			}
		}
	}

	out.Program = buildProgram(bounds, opts)
	out.DB = db
	// Rules and dictionaries are named here, in program and match order, so
	// the ids of a pass's names do not depend on which grounding sees a
	// name first.
	for _, r := range out.Program.Rules {
		names.ID(r.Name)
	}
	for _, m := range out.Matches {
		names.ID(m.Dict)
	}
	return out, nil
}

// buildProgram emits the inference rules of Section 4.2 for the selected
// variant.
func buildProgram(bounds []*dc.Bound, opts Options) *ddlog.Program {
	prog := &ddlog.Program{}
	prog.Add(&ddlog.Rule{Kind: ddlog.RandomVariables, Name: "variables"})
	if !opts.DisableCooccurFeatures || !opts.DisableSourceFeatures {
		prog.Add(&ddlog.Rule{Kind: ddlog.FeatureFactors, Name: "features"})
	}
	if len(opts.MatchDeps) > 0 {
		prog.Add(&ddlog.Rule{Kind: ddlog.MatchedFactors, Name: "matched"})
	}
	prog.Add(&ddlog.Rule{Kind: ddlog.MinimalityFactors, Name: "minimality", FixedWeight: opts.MinimalityWeight})
	for ci, b := range bounds {
		name := ruleName(ci, b)
		if opts.Variant.DCFeatures {
			for _, ref := range b.Refs {
				prog.Add(&ddlog.Rule{
					Kind:       ddlog.RelaxedDCFactors,
					Name:       fmt.Sprintf("%s@t%d.a%d", name, ref.TupleVar+1, ref.Attr),
					Constraint: ci,
					Head:       ref,
				})
			}
		}
		if opts.Variant.DCFactors {
			prog.Add(&ddlog.Rule{
				Kind:        ddlog.DCFactors,
				Name:        name,
				Constraint:  ci,
				FixedWeight: opts.DCWeight,
			})
		}
	}
	return prog
}

// ruleName is the name constraint ci's rules are generated under: its
// own, or sigma<ci+1> when it has none.
func ruleName(ci int, b *dc.Bound) string {
	if b.Src.Name == "" {
		return "sigma" + strconv.Itoa(ci+1)
	}
	return b.Src.Name
}

// featureFunc returns the HasFeature materializer: co-occurrence features
// from sibling cells ("the values of other cells in the same tuple") and
// provenance features when lineage is available (Section 4.1). A feature
// is its tie — (sibling attribute, sibling value), or the tuple's source
// named through names — so the materializer reads the cell's row and
// allocates nothing per cell. Sources are named here, in tuple order, once
// per Prepare; the table is read-only after, and therefore safe for the
// concurrent per-shard grounders.
func featureFunc(ds *dataset.Dataset, opts Options, names *factor.KeyInterner) func(dataset.Cell, []factor.Tie) []factor.Tie {
	n := ds.NumAttrs()
	siblings := !opts.DisableCooccurFeatures
	var src []int32 // src[t]: the name id of tuple t's source, -1 without one
	if !opts.DisableSourceFeatures && ds.HasSources() {
		src = make([]int32, ds.NumTuples())
		for t := range src {
			src[t] = -1
			if s := ds.Source(t); s != "" {
				src[t] = names.ID(s)
			}
		}
	}
	return func(c dataset.Cell, out []factor.Tie) []factor.Tie {
		if siblings {
			for g := 0; g < n; g++ {
				if g == c.Attr {
					continue
				}
				v := ds.Get(c.Tuple, g)
				if v == dataset.Null {
					continue
				}
				out = append(out, factor.Tie{Family: ddlog.TieFeature, C: int32(g), D: int32(v)})
			}
		}
		if src != nil && src[c.Tuple] >= 0 {
			out = append(out, factor.Tie{Family: ddlog.TieSource, C: src[c.Tuple]})
		}
		return out
	}
}

// cooccur materializes the real-valued statistics features: for a cell,
// a frequency prior plus one factor per non-null sibling attribute g whose
// h[d] is the conditional probability Pr[d | v_g], with the weight tied
// per (attribute, sibling attribute) pair. Unlike the per-(d,f) indicator
// features, this statistic transfers to values that never appear among
// the evidence cells, and the per-pair weights learn which sibling
// attributes are predictive (the original system's statistics featurizer
// works the same way).
//
// Two feature families are grounded per (cell, sibling) pair with
// separate tied weights: one over the raw dirty-data statistics (the
// paper's quantitative signal) and one over clean-cell statistics that
// exclude co-occurrences involving cells flagged noisy. The clean family
// starts at twice the prior: it cannot be fooled by self-consistent
// systematic errors (a corrupted organization's rows vouching for their
// own spelling), while the dirty family retains coverage in regions
// where detection flagged everything.
//
// features builds the vectors; moved asks, of the same contexts, whether a
// delta touched a counter they are built from. Both walk contexts, gate
// them with open and walk families, so a new gate or family is written
// once.
type cooccur struct {
	ds         *dataset.Dataset
	st, masked *stats.Stats
	quasiKey   []bool // QuasiKeys of the relation the model is compiled over
	families   [2]family
	sameCodes  bool // masked codes every value as st does (see stats.SharesCodes)
}

// family is one co-occurrence feature family: the statistics it reads, the
// tie family of its weights (one per (attribute, sibling) pair) and the
// prior they start at.
type family struct {
	src  *stats.Stats
	tie  int32
	init float64
}

// newCooccur builds the featurizer.
func newCooccur(ds *dataset.Dataset, st, masked *stats.Stats) *cooccur {
	f := &cooccur{ds: ds, st: st, masked: masked, quasiKey: QuasiKeys(st, ds.NumAttrs(), ds.NumTuples()), sameCodes: masked.SharesCodes(st)}
	f.families = [2]family{ // StatsDelta.families lists the deltas in the same order
		{src: st, tie: ddlog.TieCooc, init: 0.5},
		{src: masked, tie: ddlog.TieClean, init: 1.0},
	}
	return f
}

// QuasiKeys classifies every attribute of a relation of numTuples rows:
// quasi-key attributes (dates, identifiers) are exempt from the frequency
// prior — frequency carries no signal when nearly every value is unique.
func QuasiKeys(st *stats.Stats, numAttrs, numTuples int) []bool {
	out := make([]bool, numAttrs)
	for a := range out {
		out[a] = st.DistinctValues(a)*4 > numTuples
	}
	return out
}

// contexts yields the sibling contexts (g, v_g) of cell c, one per
// non-null sibling value; the co-occurrence features condition on those
// whose gate is open.
func (f *cooccur) contexts(c dataset.Cell) iter.Seq2[int, dataset.Value] {
	return func(yield func(int, dataset.Value) bool) {
		for g := 0; g < f.ds.NumAttrs(); g++ {
			if g == c.Attr {
				continue
			}
			if vg := f.ds.Get(c.Tuple, g); vg != dataset.Null && !yield(g, vg) {
				return
			}
		}
	}
}

// open is the gate of context (g, v_g), whose value the raw statistics
// count freq times: it must occur at least twice — a unique key
// "predicting" its own tuple's values is pure self-reference. With a delta
// of the raw statistics, a context whose frequency it touched is open too:
// the gate may have been open before the delta.
func open(freq int, raw *stats.Delta, g int, vg dataset.Value) bool {
	return freq >= 2 || raw != nil && raw.TouchedFreq(g, vg)
}

// features is the ddlog.Database.SoftFeatures materializer. Every
// statistics read is by code: the candidates' codes are resolved once for
// the cell, and a context's code once for its gate and both rows — the
// clean family shares the raw family's codes when both statistics come
// from one encoding, as the pipeline's do.
func (f *cooccur) features(c dataset.Cell, dom []int32, out *ddlog.SoftBuf) {
	a := int32(c.Attr)
	var buf [64]int32
	codes := buf[:0] // each family's codes of the candidates, end to end
	for i, fam := range f.families {
		if i > 0 && f.sameCodes {
			codes = append(codes, codes[:len(dom)]...)
			continue
		}
		for _, label := range dom {
			codes = append(codes, fam.src.Code(c.Attr, dataset.Value(label)))
		}
	}
	// Empirical value-frequency prior (the "empirical distribution
	// characterizing attributes" of Section 1), over clean-cell counts and
	// normalized by the best candidate: a value that never occurs outside
	// flagged cells — a replicated misspelling, a typo — earns no mass no
	// matter how self-consistent its tuples are.
	if !f.quasiKey[c.Attr] {
		freqH := out.Vec(len(dom))
		maxF := 0.0
		for d, k := range codes[len(dom):] { // the clean family reads masked
			freqH[d] = float64(f.masked.FreqOf(c.Attr, k))
			maxF = max(maxF, freqH[d])
		}
		if maxF > 0 {
			for d := range freqH {
				freqH[d] /= maxF
			}
			out.Add(factor.Tie{Family: ddlog.TieFreq, A: a}, freqH, 1.0)
		}
	}
	// h[d] = Pr[d | v_g] = #(d, v_g) / #v_g, read off the context's row.
	for g, vg := range f.contexts(c) {
		k := f.st.Code(g, vg)
		if !open(f.st.FreqOf(g, k), nil, g, vg) {
			continue
		}
		for i, fam := range f.families {
			kg := k
			if i > 0 && !f.sameCodes {
				kg = fam.src.Code(g, vg)
			}
			row := fam.src.RowOf(c.Attr, g, kg)
			if row.Len() == 0 {
				continue
			}
			h := out.Vec(len(dom))
			any := false
			for d, code := range codes[i*len(dom) : (i+1)*len(dom)] {
				if cnt := row.Count(code); cnt != 0 {
					h[d] = float64(cnt) / float64(row.Given())
					any = true
				}
			}
			if any {
				out.Add(factor.Tie{Family: fam.tie, A: a, B: int32(g)}, h, fam.init)
			}
		}
	}
}

// StatsDelta is what a batch of tuple changes did to the statistics a
// model is compiled over: the counters stats.Apply touched in
// Options.Stats and Options.MaskedStats, and the QuasiKeys classification
// before it.
type StatsDelta struct {
	Raw, Masked  *stats.Delta
	PrevQuasiKey []bool
}

// families lists the deltas as cooccur.families lists their statistics.
func (d StatsDelta) families() [2]*stats.Delta { return [2]*stats.Delta{d.Raw, d.Masked} }

// MarkStatDirty adds to dirty every tuple owning a noisy cell whose
// statistics features read a counter the delta moved: the cell must
// re-ground and re-infer (its whole tuple does, to keep sibling-domain
// discounts shard-local). It asks the featurizer cell by cell, so it is
// exact for whatever the features currently read; without co-occurrence
// features no statistics enter the model and nothing is marked.
func (p *Prepared) MarkStatDirty(d StatsDelta, dirty map[int]bool) {
	f := p.cooccur
	if f == nil {
		return
	}
	for i, c := range p.Domains.Cells {
		if !dirty[c.Tuple] && (f.quasiKey[c.Attr] != d.PrevQuasiKey[c.Attr] || f.moved(c, p.Domains.Candidates[i], d)) {
			dirty[c.Tuple] = true
		}
	}
}

// moved reports whether the delta touched a counter features(c, dom)
// reads, given that the attribute's quasi-key classification held.
func (f *cooccur) moved(c dataset.Cell, dom []dataset.Value, d StatsDelta) bool {
	// Frequency prior: clean-cell counts of the candidate labels.
	if !f.quasiKey[c.Attr] {
		for _, l := range dom {
			if d.Masked.TouchedFreq(c.Attr, l) {
				return true
			}
		}
	}
	// Co-occurrence families: the conditioning value's frequency — gate
	// and denominator — and, per candidate, the histogram bucket h[d]
	// reads. A bucket touched for a value outside the candidate set leaves
	// the features intact.
	for g, vg := range f.contexts(c) {
		if !open(f.st.Freq(g, vg), d.Raw, g, vg) {
			continue
		}
		for _, fd := range d.families() {
			if fd.TouchedFreq(g, vg) {
				return true
			}
			for _, l := range dom {
				if fd.TouchedCond(c.Attr, l, g, vg) {
					return true
				}
			}
		}
	}
	return false
}

// fusionFeatureFunc materializes the source-fusion signal: H[d] is the
// accuracy-weighted vote share of candidate d among the tuples reporting
// on the same entity attribute, with one learnable weight per attribute
// (tied per attribute).
func fusionFeatureFunc(votes *fusion.Votes) func(dataset.Cell, []int32, *ddlog.SoftBuf) {
	return func(c dataset.Cell, dom []int32, out *ddlog.SoftBuf) {
		h := out.Vec(len(dom))
		any := false
		for d, label := range dom {
			s, ok := votes.Share(c, dataset.Value(label))
			if !ok {
				return
			}
			h[d] = s
			if s != 0 {
				any = true
			}
		}
		if any {
			out.Add(factor.Tie{Family: ddlog.TieFusion, A: int32(c.Attr)}, h, 3.0)
		}
	}
}

// sampleEvidence draws up to MaxEvidence clean cells — neither flagged by
// detection, nor trusted, nor Null — restricted to attributes that contain
// at least one noisy cell (other attributes share no tied weights with any
// query variable), puts every non-null trusted (user-confirmed) cell ahead
// of them once, and computes their candidate domains with the same
// Algorithm 2 configuration. Cells whose pruned domain is a singleton
// carry no training signal and are skipped.
func sampleEvidence(ds *dataset.Dataset, st *stats.Stats, noisy []dataset.Cell, trusted map[dataset.Cell]bool, opts Options) ([]dataset.Cell, [][]dataset.Value) {
	noisyAttrs := make([]bool, ds.NumAttrs())
	for _, c := range noisy {
		noisyAttrs[c.Attr] = true
	}
	var pool []dataset.Cell
	for t := 0; t < ds.NumTuples(); t++ {
		for a := 0; a < ds.NumAttrs(); a++ {
			c := dataset.Cell{Tuple: t, Attr: a}
			if !noisyAttrs[a] || ds.Get(t, a) == dataset.Null || opts.Detection.IsNoisy(c) || trusted[c] {
				continue
			}
			pool = append(pool, c)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > opts.MaxEvidence {
		pool = pool[:opts.MaxEvidence]
	}
	// User-confirmed cells are always evidence, ahead of the sample.
	sample := make([]dataset.Cell, 0, len(opts.Trusted)+len(pool))
	for _, c := range opts.Trusted {
		if ds.Get(c.Tuple, c.Attr) != dataset.Null {
			sample = append(sample, c)
		}
	}
	sample = append(sample, pool...)
	evDomains := pruning.Compute(ds, st, sample, pruning.Config{
		Tau:           opts.Tau,
		MaxCandidates: opts.MaxCandidates,
		FullDomain:    opts.FullDomain,
	})
	var cells []dataset.Cell
	var doms [][]dataset.Value
	for i, c := range evDomains.Cells {
		if len(evDomains.Candidates[i]) < 2 {
			continue
		}
		cells = append(cells, c)
		doms = append(doms, evDomains.Candidates[i])
	}
	return cells, doms
}
