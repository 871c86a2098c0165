// Command holoclean cleans a CSV file using denial constraints:
//
//	holoclean -data dirty.csv -dc constraints.txt -out repaired.csv
//
// The constraints file holds one denial constraint per line in the
// textual format (see package dc), e.g.
//
//	c1: t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)
//
// An optional external dictionary CSV can be supplied with -dict; its
// first column set is matched by name against the data schema via
// "-match Zip=Ext_Zip:City=Ext_City"-style dependencies.
//
// With -evaluate clean.csv the run is scored against ground truth and
// the precision/recall/F1 line of the paper's Section 6 evaluation is
// printed to stderr, e.g.
//
//	holoclean -data dirty.csv -dc constraints.txt -evaluate clean.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"holoclean"
	"holoclean/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("holoclean: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run is the whole CLI behind a testable seam: args are the command-line
// arguments after the program name, stdout receives the repaired CSV
// (when -out is unset) and stderr the progress and evaluation lines.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("holoclean", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "dirty CSV file (header row required)")
		dcPath    = fs.String("dc", "", "denial constraints file")
		discover  = fs.Bool("discover", false, "discover approximate FDs from the data instead of (or in addition to) -dc")
		epsilon   = fs.Float64("epsilon", 0.05, "violation tolerance for -discover")
		outPath   = fs.String("out", "", "output CSV for the repaired dataset (default: stdout)")
		srcColumn = fs.String("source", "", "name of a provenance column (enables source-reliability features)")
		dictPath  = fs.String("dict", "", "optional external dictionary CSV")
		matchSpec = fs.String("match", "", "matching dependencies: cond=DictCol[,cond2=DictCol2]>Attr=DictCol per dependency, ';' separated")
		tau       = fs.Float64("tau", 0.5, "domain pruning threshold (Algorithm 2)")
		variant   = fs.String("variant", "feats", "model variant: feats, factors, factors+part, feats+factors, feats+factors+part")
		outliers  = fs.Bool("outliers", false, "add outlier-based error detection")
		workers   = fs.Int("workers", 0, "shard worker pool size (0 = all CPUs); results are identical for any value")
		maxComp   = fs.Int("max-component-cells", 0, "split conflict components larger than this many cells into damped sub-shards (0 = never split)")
		showStats = fs.Bool("stats", false, "print the component-size histogram and skew gauge to stderr")
		deltaPath = fs.String("delta", "", "CSV of tuple changes (op,row,<schema...>) applied after the initial clean; re-repairs incrementally via a Session")
		relearn   = fs.Int("relearn-every", 0, "with -delta: relearn weights on every Nth reclean (0 = reuse the initial weights)")
		evalPath  = fs.String("evaluate", "", "ground-truth CSV (data schema, no provenance column); prints precision/recall/F1 to stderr")
		seed      = fs.Int64("seed", 1, "random seed")
		verbose   = fs.Bool("v", false, "print repairs and marginals")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || (*dcPath == "" && !*discover) {
		fs.Usage()
		return fmt.Errorf("-data and one of -dc / -discover are required")
	}

	ds, err := holoclean.LoadCSV(*dataPath, *srcColumn)
	if err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	var constraints []*holoclean.Constraint
	if *dcPath != "" {
		dcFile, err := os.Open(*dcPath)
		if err != nil {
			return fmt.Errorf("opening constraints: %w", err)
		}
		constraints, err = holoclean.ParseConstraints(dcFile)
		dcFile.Close()
		if err != nil {
			return fmt.Errorf("parsing constraints: %w", err)
		}
	}
	if *discover {
		mined := holoclean.DiscoverConstraints(ds, *epsilon, 1)
		fmt.Fprintf(stderr, "holoclean: discovered %d approximate FDs\n", len(mined))
		for _, c := range mined {
			fmt.Fprintf(stderr, "  %s: %s\n", c.Name, c.String())
		}
		constraints = append(constraints, mined...)
	}

	opts := holoclean.DefaultOptions()
	opts.Tau = *tau
	opts.Seed = *seed
	opts.OutlierDetection = *outliers
	opts.Workers = *workers
	opts.MaxComponentCells = *maxComp
	switch *variant {
	case "feats":
		opts.Variant = holoclean.VariantDCFeats
	case "factors":
		opts.Variant = holoclean.VariantDCFactors
	case "factors+part":
		opts.Variant = holoclean.VariantDCFactorsPartitioned
	case "feats+factors":
		opts.Variant = holoclean.VariantDCFeatsFactors
	case "feats+factors+part":
		opts.Variant = holoclean.VariantDCFeatsFactorsPartitioned
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}

	if *dictPath != "" {
		dict, mds, err := loadDictionary(*dictPath, *matchSpec)
		if err != nil {
			return fmt.Errorf("loading dictionary: %w", err)
		}
		opts.Dictionaries = []*holoclean.Dictionary{dict}
		opts.MatchDependencies = mds
	}

	// dirty is the relation the evaluation scores against: the loaded
	// data, or the session's post-delta state on the incremental path.
	var res *holoclean.Result
	dirty := ds
	if *deltaPath != "" {
		opts.RelearnEvery = *relearn
		res, dirty, err = runSession(ds, constraints, opts, *deltaPath, stderr)
	} else {
		res, err = holoclean.New(opts).Clean(ds, constraints)
	}
	if err != nil {
		return fmt.Errorf("cleaning: %w", err)
	}

	fmt.Fprintf(stderr,
		"holoclean: %d noisy cells, %d variables, %d factors, %d shards; %d repairs in %v\n",
		res.Stats.NoisyCells, res.Stats.Variables, res.Stats.Factors,
		res.Stats.Shards, len(res.Repairs), res.Stats.TotalTime.Round(1e6))
	if *showStats {
		printComponentStats(stderr, res.Stats)
	}
	if *verbose {
		for _, r := range res.Repairs {
			fmt.Fprintf(stderr, "  row %d %s: %q -> %q (p=%.2f)\n",
				r.Tuple, r.Attr, r.Old, r.New, r.Probability)
		}
	}

	if *evalPath != "" {
		truth, err := holoclean.LoadCSV(*evalPath, "")
		if err != nil {
			return fmt.Errorf("loading ground truth: %w", err)
		}
		eval, err := metrics.Evaluate(dirty, res.Repaired, truth)
		if err != nil {
			return fmt.Errorf("evaluating against %s: %w", *evalPath, err)
		}
		fmt.Fprintf(stderr, "holoclean: eval vs %s: %s\n", *evalPath, eval)
	}

	if *outPath == "" {
		return res.Repaired.WriteCSV(stdout)
	}
	return res.Repaired.WriteCSVFile(*outPath)
}

// printComponentStats renders the -stats view: the log2 histogram of
// conflict-component sizes, the skew gauge, and how the plan handled it.
func printComponentStats(stderr io.Writer, st holoclean.RunStats) {
	fmt.Fprintf(stderr, "holoclean: stats: %d of %d noisy cells are inert (one candidate after pruning, no per-cell factors grounded)\n",
		st.InertCells, st.NoisyCells)
	if len(st.ComponentSizeHist) == 0 {
		fmt.Fprintln(stderr, "holoclean: stats: no conflict components (independent-variable model or no violations)")
		return
	}
	fmt.Fprintln(stderr, "holoclean: stats: component size histogram (tuples per component):")
	for k, n := range st.ComponentSizeHist {
		if n == 0 {
			continue
		}
		lo := 1 << k
		hi := 1<<(k+1) - 1
		fmt.Fprintf(stderr, "  [%d..%d]: %d\n", lo, hi, n)
	}
	fmt.Fprintf(stderr, "holoclean: stats: largest component holds %.1f%% of conflicted tuples", 100*st.LargestComponentFrac)
	if st.SplitShards > 0 {
		fmt.Fprintf(stderr, "; split into %d damped sub-shards", st.SplitShards)
	}
	fmt.Fprintln(stderr)
	fmt.Fprintf(stderr, "holoclean: stats: peak heap %d MiB, %d MiB allocated over the run\n",
		st.PeakHeapBytes>>20, st.AllocBytes>>20)
}

// runSession cleans through an incremental Session: one full clean, then
// the delta file's tuple changes followed by a Reclean that re-repairs
// only the affected scope. The delta CSV has columns op,row,<schema...>:
// op is "upsert" or "delete", row the tuple index (-1 or empty appends),
// and the remaining columns the new values (ignored for deletes). The
// second return value is the session's post-delta dirty relation, which
// -evaluate scores against.
func runSession(ds *holoclean.Dataset, constraints []*holoclean.Constraint, opts holoclean.Options, deltaPath string, stderr io.Writer) (*holoclean.Result, *holoclean.Dataset, error) {
	s, err := holoclean.NewSession(ds, constraints, opts)
	if err != nil {
		return nil, nil, err
	}
	first, err := s.Clean()
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "holoclean: initial clean: %d repairs, %d shards in %v\n",
		len(first.Repairs), first.Stats.Shards, first.Stats.TotalTime.Round(1e6))

	f, err := os.Open(deltaPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		return nil, nil, err
	}
	applied := 0
	for i, rec := range records {
		if i == 0 && len(rec) > 0 && strings.EqualFold(rec[0], "op") {
			continue // header
		}
		if len(rec) < 2 {
			return nil, nil, fmt.Errorf("delta line %d: need op,row[,values...]", i+1)
		}
		row := -1
		if v := strings.TrimSpace(rec[1]); v != "" {
			if row, err = strconv.Atoi(v); err != nil {
				return nil, nil, fmt.Errorf("delta line %d: bad row %q", i+1, rec[1])
			}
		}
		switch op := strings.ToLower(strings.TrimSpace(rec[0])); op {
		case "upsert":
			if len(rec) != ds.NumAttrs()+2 {
				return nil, nil, fmt.Errorf("delta line %d: got %d values, want %d", i+1, len(rec)-2, ds.NumAttrs())
			}
			if _, err := s.Upsert(row, rec[2:]); err != nil {
				return nil, nil, err
			}
		case "delete":
			if err := s.Delete(row); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("delta line %d: unknown op %q", i+1, op)
		}
		applied++
	}
	res, err := s.Reclean()
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stderr, "holoclean: reclean after %d changes: %d shards executed, %d reused in %v\n",
		applied, res.Stats.Shards, res.Stats.ShardsReused, res.Stats.TotalTime.Round(1e6))
	return res, s.Dataset(), nil
}

// loadDictionary reads a dictionary CSV and parses the -match spec into
// matching dependencies. Each dependency is
// "DataAttr=DictCol[,DataAttr=DictCol...]>DataAttr=DictCol" —
// conditions before '>', conclusion after. A '~' prefix on a condition's
// data attribute requests approximate matching.
func loadDictionary(path, spec string) (*holoclean.Dictionary, []*holoclean.MatchDependency, error) {
	ds, err := holoclean.LoadCSV(path, "")
	if err != nil {
		return nil, nil, err
	}
	dict := holoclean.NewDictionary("dict", ds.Attrs())
	row := make([]string, ds.NumAttrs())
	for t := 0; t < ds.NumTuples(); t++ {
		for a := range row {
			row[a] = ds.GetString(t, a)
		}
		dict.Append(row)
	}
	var mds []*holoclean.MatchDependency
	for i, dep := range strings.Split(spec, ";") {
		dep = strings.TrimSpace(dep)
		if dep == "" {
			continue
		}
		parts := strings.SplitN(dep, ">", 2)
		if len(parts) != 2 {
			return nil, nil, fmt.Errorf("dependency %q needs conditions>conclusion", dep)
		}
		md := &holoclean.MatchDependency{Name: fmt.Sprintf("m%d", i+1), Dict: "dict"}
		for _, cond := range strings.Split(parts[0], ",") {
			term, err := parseTerm(cond)
			if err != nil {
				return nil, nil, err
			}
			md.Conditions = append(md.Conditions, term)
		}
		conc, err := parseTerm(parts[1])
		if err != nil {
			return nil, nil, err
		}
		md.Conclusion = conc
		mds = append(mds, md)
	}
	if len(mds) == 0 {
		return nil, nil, fmt.Errorf("-dict requires -match dependencies")
	}
	return dict, mds, nil
}

func parseTerm(s string) (holoclean.MatchTerm, error) {
	s = strings.TrimSpace(s)
	approx := strings.HasPrefix(s, "~")
	s = strings.TrimPrefix(s, "~")
	kv := strings.SplitN(s, "=", 2)
	if len(kv) != 2 {
		return holoclean.MatchTerm{}, fmt.Errorf("term %q needs DataAttr=DictCol", s)
	}
	return holoclean.MatchTerm{DataAttr: kv[0], DictAttr: kv[1], Approx: approx}, nil
}
