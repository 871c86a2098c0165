// Package stats computes the quantitative statistics of the input dataset
// that HoloClean uses as a repair signal (Section 1, Section 4.1): value
// frequencies and pairwise co-occurrence counts across attributes. The
// same statistics drive domain pruning (Algorithm 2), the HasFeature
// relation, outlier-based error detection, and the SCARE baseline.
//
// The counts live in code space. Every attribute has a column dictionary
// that numbers its values 0, 1, 2, … in order of first appearance; an
// attribute's frequencies are one []int32 indexed by code, and each ordered
// attribute pair (a, g) is one histogram in CSR form — a row per code of
// the conditioning attribute g, each row a run of (code of a's value,
// count) buckets in ascending code order, all rows of the pair in one
// arena. Encode numbers every column once and orders each attribute's
// tuples by code with a counting sort; collection then fills a pair's rows
// in one walk of that order, so it costs O(rows + distinct values) per pair
// with no sort and no allocation per context. Reading a counter costs one
// dictionary probe per value and a binary search inside a row; Row hands a
// reader a whole context's histogram.
package stats

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"holoclean/internal/dataset"
)

// Stats holds frequency and co-occurrence statistics for one dataset.
// Co-occurrence is stored directionally: hist[a*N+g] holds, per value v_g
// of the conditioning attribute g, the histogram of target attribute a's
// values among the tuples where g = v_g. Both directions of every
// attribute pair are materialized so conditional lookups are direct.
//
// A Stats is read concurrently (shard workers share one) and changes only
// under Apply; every reader's scratch is its own.
type Stats struct {
	numAttrs int
	total    int
	cols     []*column   // column dictionaries, shared with every Stats of the same Columns
	freq     [][]int32   // freq[a][code] = #tuples with t[a] = that value; codes past the end count 0
	distinct []int       // distinct[a] = #codes of a with a nonzero frequency
	hist     []histogram // hist[a*numAttrs+g]; the a == g entries stay empty
}

// column is one attribute's dictionary. Codes are append-only: a value
// keeps its code after its last occurrence is removed, so a code never
// changes meaning under a reader.
type column struct {
	code map[dataset.Value]int32
	vals []dataset.Value // vals[code]
}

// intern returns v's code, giving an unseen value the next one.
func (c *column) intern(v dataset.Value) int32 {
	k, ok := c.code[v]
	if !ok {
		k = int32(len(c.vals))
		c.code[v] = k
		c.vals = append(c.vals, v)
	}
	return k
}

// histogram is one ordered pair's co-occurrence counts: rows[code of v_g]
// is a span of arena holding the row's buckets in ascending target code.
// Collection packs the rows end to end; Apply grows a full row by moving it
// to the arena's tail with spare room.
type histogram struct {
	rows  []span
	arena []bucket
}

type span struct{ off, n, cap int32 }

type bucket struct{ code, count int32 }

// Columns is a relation encoded for collection: every attribute's column
// dictionary, each tuple's codes, and each attribute's tuples in ascending
// code order. Every Stats collected from one Columns shares its
// dictionaries, so a pass that collects raw and clean-cell statistics
// encodes each column once.
type Columns struct {
	tuples int
	cols   []*column
	codes  [][]int32 // codes[a][t]; -1 for a null cell
	order  [][]int32 // order[a]: the tuples with a non-null a, ascending by code
}

// Encode builds the column dictionaries of ds and orders each attribute's
// tuples by code (a counting sort over the codes' frequencies).
func Encode(ds *dataset.Dataset) *Columns {
	n, m := ds.NumAttrs(), ds.NumTuples()
	c := &Columns{tuples: m, cols: make([]*column, n), codes: make([][]int32, n), order: make([][]int32, n)}
	seen := make([]int32, ds.Dict().Size()) // value → code+1 within the current attribute
	for a := 0; a < n; a++ {
		col := &column{}
		codes := make([]int32, m)
		var counts []int32
		for t := 0; t < m; t++ {
			v := ds.Get(t, a)
			if v == dataset.Null {
				codes[t] = -1
				continue
			}
			if int(v) >= len(seen) {
				seen = append(seen, make([]int32, int(v)+1-len(seen))...)
			}
			k := seen[v]
			if k == 0 {
				col.vals = append(col.vals, v)
				counts = append(counts, 0)
				k = int32(len(col.vals))
				seen[v] = k
			}
			codes[t] = k - 1
			counts[k-1]++
		}
		col.code = make(map[dataset.Value]int32, len(col.vals))
		for k, v := range col.vals {
			col.code[v] = int32(k)
			seen[v] = 0
		}
		pos, nonNull := counts, int32(0) // counts become each code's first slot in order
		for k, cnt := range counts {
			pos[k], nonNull = nonNull, nonNull+cnt
		}
		order := make([]int32, nonNull)
		for t, k := range codes {
			if k >= 0 {
				order[pos[k]] = int32(t)
				pos[k]++
			}
		}
		c.cols[a], c.codes[a], c.order[a] = col, codes, order
	}
	return c
}

// Collect returns the statistics of the encoded relation. Null cells are
// skipped: a missing value neither counts as evidence nor conditions
// anything.
func (c *Columns) Collect() *Stats { return c.CollectMasked(nil) }

// CollectMasked is Collect with the cells excluded by skip (when non-nil)
// treated as missing; skip is asked once per non-null cell. HoloClean uses
// this for a second set of statistics over the cells error detection
// considers clean, so that systematic errors — which are self-consistent in
// the dirty data — do not manufacture supporting co-occurrence evidence for
// themselves. The result shares c's dictionaries.
func (c *Columns) CollectMasked(skip func(t, a int) bool) *Stats {
	n := len(c.cols)
	codes := c.codes
	if skip != nil {
		codes = make([][]int32, n)
		for a := range codes {
			masked := slices.Clone(c.codes[a])
			for t, k := range masked {
				if k >= 0 && skip(t, a) {
					masked[t] = -1
				}
			}
			codes[a] = masked
		}
	}
	s := &Stats{
		numAttrs: n,
		total:    c.tuples,
		cols:     c.cols,
		freq:     make([][]int32, n),
		distinct: make([]int, n),
		hist:     make([]histogram, n*n),
	}
	for a := 0; a < n; a++ {
		f := make([]int32, len(c.cols[a].vals))
		for _, t := range c.order[a] {
			if k := codes[a][t]; k >= 0 {
				if f[k] == 0 {
					s.distinct[a]++
				}
				f[k]++
			}
		}
		s.freq[a] = f
	}

	// One job per target attribute a: its tuple order and codes are read by
	// all of its pairs, and the worker's bucket scratch is reused across them.
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []bucket
			for a := range jobs {
				for g := 0; g < n; g++ {
					if g != a {
						s.hist[a*n+g], scratch = fill(c.order[a], codes[a], codes[g], len(c.cols[g].vals), scratch)
					}
				}
			}
		}()
	}
	for a := 0; a < n; a++ {
		jobs <- a
	}
	close(jobs)
	wg.Wait()
	return s
}

// fill builds the histogram of target codes ca per conditioning code cg,
// over the tuples of order (ascending in ca) where both are present. Rows
// are first laid out in scratch with room for one bucket per tuple; since
// each row receives its target codes in ascending order, equal codes arrive
// back to back and a bucket is extended in place. The packed arena is then
// exactly the distinct (v_g, v) pairs.
func fill(order, ca, cg []int32, givens int, scratch []bucket) (histogram, []bucket) {
	rows := make([]span, givens)
	for _, t := range order {
		if ca[t] >= 0 && cg[t] >= 0 {
			rows[cg[t]].cap++
		}
	}
	off := int32(0)
	for i := range rows {
		rows[i].off = off
		off += rows[i].cap
	}
	scratch = slices.Grow(scratch[:0], int(off))[:off]
	size := 0
	for _, t := range order {
		k, r := ca[t], cg[t]
		if k < 0 || r < 0 {
			continue
		}
		row := &rows[r]
		if end := row.off + row.n; row.n > 0 && scratch[end-1].code == k {
			scratch[end-1].count++
		} else {
			scratch[end] = bucket{code: k, count: 1}
			row.n++
			size++
		}
	}
	arena := make([]bucket, size)
	off = 0
	for i := range rows {
		r := &rows[i]
		copy(arena[off:], scratch[r.off:r.off+r.n])
		r.off, r.cap = off, r.n
		off += r.n
	}
	return histogram{rows: rows, arena: arena}, scratch
}

// Collect scans the dataset and returns its statistics.
func Collect(ds *dataset.Dataset) *Stats { return Encode(ds).Collect() }

// CollectFiltered is Collect with cells excluded by skip (when non-nil)
// treated as missing; see Columns.CollectMasked.
func CollectFiltered(ds *dataset.Dataset, skip func(t, a int) bool) *Stats {
	return Encode(ds).CollectMasked(skip)
}

// NumTuples returns the number of tuples the statistics were drawn from.
func (s *Stats) NumTuples() int { return s.total }

// Code returns the code of value v in attribute a's dictionary, or -1 when
// a has never held v. Codes index Row buckets and are valid for as long as
// the Stats (Apply only adds codes).
func (s *Stats) Code(a int, v dataset.Value) int32 {
	if k, ok := s.cols[a].code[v]; ok {
		return k
	}
	return -1
}

// NumCodes returns the number of codes attribute a's dictionary has
// handed out, an upper bound for every code a Row of a holds.
func (s *Stats) NumCodes(a int) int { return len(s.cols[a].vals) }

// Freq returns the number of tuples whose attribute a equals v.
func (s *Stats) Freq(a int, v dataset.Value) int { return s.freqOf(a, s.Code(a, v)) }

func (s *Stats) freqOf(a int, k int32) int {
	if k < 0 || int(k) >= len(s.freq[a]) {
		return 0
	}
	return int(s.freq[a][k])
}

// DistinctValues returns the number of distinct non-null values of a.
func (s *Stats) DistinctValues(a int) int { return s.distinct[a] }

// Cooc returns the number of tuples with t[a]=v and t[g]=vg, for a ≠ g.
func (s *Stats) Cooc(a int, v dataset.Value, g int, vg dataset.Value) int {
	return s.Row(a, g, vg).Count(s.Code(a, v))
}

// CondProb returns Pr[t[a]=v | t[g]=vg] = #(v,vg) / #vg, the quantity
// thresholded by Algorithm 2. It returns 0 when vg never occurs.
func (s *Stats) CondProb(a int, v dataset.Value, g int, vg dataset.Value) float64 {
	r := s.Row(a, g, vg)
	if r.given == 0 {
		return 0
	}
	return float64(r.Count(s.Code(a, v))) / float64(r.given)
}

// Row is one context's histogram: the values of an attribute a, with
// their counts, among the tuples whose attribute g holds one value v_g.
// Buckets are in ascending code order. A Row is a view into its Stats,
// valid until the next Apply; the zero Row is empty.
type Row struct {
	buckets []bucket
	vals    []dataset.Value // a's dictionary
	given   int
}

// Row returns the histogram of attribute a's values among tuples where
// attribute g equals vg.
func (s *Stats) Row(a, g int, vg dataset.Value) Row {
	k := s.Code(g, vg)
	if k < 0 {
		return Row{}
	}
	r := Row{vals: s.cols[a].vals, given: s.freqOf(g, k)}
	if h := &s.hist[a*s.numAttrs+g]; int(k) < len(h.rows) {
		sp := h.rows[k]
		r.buckets = h.arena[sp.off : sp.off+sp.n : sp.off+sp.n]
	}
	return r
}

// Len returns the number of buckets (distinct values of a) in the row.
func (r Row) Len() int { return len(r.buckets) }

// At returns the code and count of the i-th bucket.
func (r Row) At(i int) (code int32, count int) {
	b := r.buckets[i]
	return b.code, int(b.count)
}

// Value returns the value of the i-th bucket.
func (r Row) Value(i int) dataset.Value { return r.vals[r.buckets[i].code] }

// Count returns the count of the bucket with the given code, 0 when the
// row has none (including code -1).
func (r Row) Count(code int32) int {
	if i, ok := slices.BinarySearchFunc(r.buckets, code, cmpCode); ok {
		return int(r.buckets[i].count)
	}
	return 0
}

func cmpCode(b bucket, code int32) int { return cmp.Compare(b.code, code) }

// Given returns #v_g, the frequency of the conditioning value — the
// denominator of every conditional probability the row answers.
func (r Row) Given() int { return r.given }

// ValuesAbove returns the values v of attribute a with
// Pr[v | t[g]=vg] ≥ tau, i.e. the per-context candidate set of
// Algorithm 2. The result order is unspecified.
func (s *Stats) ValuesAbove(a, g int, vg dataset.Value, tau float64) []dataset.Value {
	r := s.Row(a, g, vg)
	if r.given == 0 {
		return nil
	}
	var out []dataset.Value
	threshold := tau * float64(r.given)
	for i, b := range r.buckets {
		if float64(b.count) >= threshold {
			out = append(out, r.Value(i))
		}
	}
	return out
}
