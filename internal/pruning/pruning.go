// Package pruning implements HoloClean's domain-pruning optimization
// (Section 5.1.1, Algorithm 2). Each noisy cell c gets a random variable
// T_c whose domain would by default be the full active domain of its
// attribute — which makes grounding combinatorially explosive. Algorithm 2
// instead admits as repair candidates only values v that co-occur with the
// values of c's sibling cells above a threshold τ:
//
//	Pr[v | v_c'] = #(v, v_c' together) / #v_c'  ≥  τ
//
// Raising τ trades recall for precision and scalability (Figures 3 and 4).
package pruning

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"holoclean/internal/dataset"
	"holoclean/internal/stats"
)

// Domains maps each noisy cell to its pruned candidate set.
type Domains struct {
	Cells      []dataset.Cell    // noisy cells, ascending by tuple, then attribute
	Candidates [][]dataset.Value // Candidates[i] for Cells[i], sorted, includes the initial value

	// first is the cell index, a CSR offset per tuple: tuple t's cells are
	// Cells[first[t]:first[t+1]], at most one per attribute, so a lookup is
	// one offset read and a scan of at most NumAttrs cells. It covers the
	// tuples up to the last cell's and is built on the first lookup (once,
	// however many goroutines look up): evidence domains, whose cells come
	// shuffled, are never looked up and never indexed.
	first   []int32
	indexed sync.Once
}

// Config controls Algorithm 2.
type Config struct {
	// Tau is the co-occurrence probability threshold τ. The paper sweeps
	// {0.3, 0.5, 0.7, 0.9}.
	Tau float64
	// MaxCandidates caps each cell's domain (0 = unlimited). When the cap
	// binds, the highest-frequency candidates are kept. This bounds worst
	// cases where τ is tiny and an attribute has a huge active domain.
	MaxCandidates int
	// FullDomain disables pruning: every cell may take any value from its
	// attribute's active domain (the strategy of [7, 12], used as the
	// no-pruning ablation).
	FullDomain bool
}

// NewDomains builds a Domains from parallel cell and candidate slices, as
// Compute would have; looking a cell up requires the cells to ascend by
// tuple, then attribute.
func NewDomains(cells []dataset.Cell, candidates [][]dataset.Value) *Domains {
	return &Domains{Cells: cells, Candidates: candidates}
}

// indexCells builds the per-tuple offsets of Cells. It panics when the
// cells do not ascend: a lookup would miss them.
func (d *Domains) indexCells() {
	if len(d.Cells) == 0 {
		return
	}
	d.first = make([]int32, d.Cells[len(d.Cells)-1].Tuple+2)
	for i, c := range d.Cells {
		if i > 0 {
			if p := d.Cells[i-1]; p.Tuple > c.Tuple || p.Tuple == c.Tuple && p.Attr >= c.Attr {
				panic(fmt.Sprintf("pruning: domain cells %v, %v do not ascend by (tuple, attribute)", p, c))
			}
		}
		d.first[c.Tuple+1]++
	}
	for t := 1; t < len(d.first); t++ {
		d.first[t] += d.first[t-1]
	}
}

// Compute runs Algorithm 2 for the given noisy cells. Looking a cell up
// requires them to ascend by tuple, then attribute (detection's order).
func Compute(ds *dataset.Dataset, st *stats.Stats, noisy []dataset.Cell, cfg Config) *Domains {
	d := &Domains{
		Cells:      noisy,
		Candidates: make([][]dataset.Value, len(noisy)),
	}
	n := ds.NumAttrs()
	// The values a sibling admits, {v : Pr[v | v_c'] ≥ τ}, depend only on the
	// context (attribute, sibling attribute, sibling value), which many cells
	// share: each is evaluated once per call and kept ascending, so a cell's
	// domain is a merge of sorted slices. The memo lives and dies with this
	// call — statistics move between calls, and nothing has to be invalidated.
	contexts := make([]map[dataset.Value][]dataset.Value, n*n)
	admitted := func(a, g int, vg dataset.Value) []dataset.Value {
		m := contexts[a*n+g]
		if m == nil {
			m = make(map[dataset.Value][]dataset.Value)
			contexts[a*n+g] = m
		}
		vals, ok := m[vg]
		if !ok {
			vals = st.ValuesAbove(a, g, vg, cfg.Tau)
			slices.Sort(vals)
			m[vg] = vals
		}
		return vals
	}
	activeDomains := make([][]dataset.Value, n)
	var set, spare []dataset.Value // the cell's domain so far, ascending, and the merge target
	union := func(vals []dataset.Value) {
		spare = mergeSorted(spare[:0], set, vals)
		set, spare = spare, set
	}
	for i, c := range noisy {
		set = set[:0]
		if cfg.FullDomain {
			if activeDomains[c.Attr] == nil {
				activeDomains[c.Attr] = ds.ActiveDomain(c.Attr)
			}
			union(activeDomains[c.Attr])
		} else {
			// For each sibling cell c' of c, admit values of c's attribute
			// whose conditional probability given v_c' clears τ.
			for g := 0; g < n; g++ {
				if g == c.Attr {
					continue
				}
				vg := ds.Get(c.Tuple, g)
				if vg == dataset.Null {
					continue
				}
				union(admitted(c.Attr, g, vg))
			}
		}
		init := ds.Get(c.Tuple, c.Attr)
		if init != dataset.Null {
			union([]dataset.Value{init})
		}
		if cfg.MaxCandidates > 0 && len(set) > cfg.MaxCandidates {
			slices.SortFunc(set, func(x, y dataset.Value) int {
				if fx, fy := st.Freq(c.Attr, x), st.Freq(c.Attr, y); fx != fy {
					return fy - fx
				}
				return cmp.Compare(x, y)
			})
			set = set[:cfg.MaxCandidates]
			if init != dataset.Null && !slices.Contains(set, init) {
				set[len(set)-1] = init
			}
			slices.Sort(set)
		}
		d.Candidates[i] = append(make([]dataset.Value, 0, len(set)), set...)
	}
	return d
}

// mergeSorted appends the union of two ascending duplicate-free slices to
// dst, ascending and duplicate-free.
func mergeSorted(dst, a, b []dataset.Value) []dataset.Value {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case a[0] > b[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// Inject adds extra candidate values (e.g. suggestions from external
// dictionaries, which Example 3 admits into Domain) to a cell's domain.
// Unknown cells are ignored.
func (d *Domains) Inject(c dataset.Cell, v dataset.Value) {
	i := d.Index(c)
	if i < 0 {
		return
	}
	if slices.Contains(d.Candidates[i], v) {
		return
	}
	d.Candidates[i] = append(d.Candidates[i], v)
	slices.Sort(d.Candidates[i])
}

// Of returns the candidate set of cell c, or nil when c is not a noisy cell.
func (d *Domains) Of(c dataset.Cell) []dataset.Value {
	if i := d.Index(c); i >= 0 {
		return d.Candidates[i]
	}
	return nil
}

// Index returns the position of cell c in Cells, or -1.
func (d *Domains) Index(c dataset.Cell) int {
	d.indexed.Do(d.indexCells)
	if c.Tuple < 0 || c.Tuple+1 >= len(d.first) {
		return -1
	}
	for i := d.first[c.Tuple]; i < d.first[c.Tuple+1]; i++ {
		if d.Cells[i].Attr == c.Attr {
			return int(i)
		}
	}
	return -1
}

// TotalCandidates sums all candidate-set sizes — the number of Value?
// random-variable instantiations the grounder will create.
func (d *Domains) TotalCandidates() int {
	n := 0
	for _, cs := range d.Candidates {
		n += len(cs)
	}
	return n
}

// MaxDomain returns the largest candidate-set size.
func (d *Domains) MaxDomain() int {
	m := 0
	for _, cs := range d.Candidates {
		if len(cs) > m {
			m = len(cs)
		}
	}
	return m
}
