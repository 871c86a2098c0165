package dataset

import "slices"

// Histogram counts one attribute's values inside the blocks of tuples that
// agree on a list of key attributes. For key attributes K and attribute V,
// block k holds the tuples whose K values are the k-th key, every one of
// them non-null, and the runs (V value, count) of those tuples' non-null V
// values in ascending value order. It is the sufficient statistic of an
// FD-shaped constraint [K = K', V ≠ V']: how many tuples of a block a value
// d would conflict with is NonNull(k) − Count(k, d), read without visiting
// one of them.
type Histogram struct {
	width   int
	keys    []Value // block k's key is keys[k*width : (k+1)*width]; keys ascend lexicographically
	blockOf []int32 // tuple → its block, -1 when one of its key values is null
	rows    []int32 // rows[k]: the tuples of block k
	nonNull []int32 // nonNull[k]: those of them with a non-null V
	start   []int32 // block k's runs are vals[start[k]:start[k+1]], counted in counts
	vals    []Value
	counts  []int32
}

// NewHistogram counts attribute attr of ds inside the blocks of the key
// attributes key. Like NewBlocks it counting-sorts over value ids, once by
// attr and then once per key attribute from the last to the first, so the
// build is linear in the tuples and the largest value the columns hold.
func NewHistogram(ds *Dataset, key []int, attr int) *Histogram {
	n, w := ds.NumTuples(), len(key)
	h := &Histogram{width: w, blockOf: make([]int32, n)}
	// cols[i*n+t] is tuple t's value on key[i], or on attr for i == w: the
	// rows are read once, and the sorts below walk compact columns.
	cols := make([]Value, (w+1)*n)
	order := make([]int32, 0, n) // the tuples with a full key
	top := Null
	for t, row := range ds.rows {
		h.blockOf[t] = -1
		full := true
		for i, a := range key {
			v := row[a]
			cols[i*n+t] = v
			full = full && v != Null
			top = max(top, v)
		}
		cols[w*n+t] = row[attr]
		top = max(top, row[attr])
		if full {
			order = append(order, int32(t))
		}
	}
	// Stable counting sorts, least significant column first, leave order
	// ascending by (key, attr value).
	count := make([]int32, top+1)
	sorted := make([]int32, len(order))
	for i := w; i >= 0; i-- {
		col := cols[i*n : (i+1)*n]
		clear(count)
		for _, t := range order {
			count[col[t]]++
		}
		off := int32(0)
		for v, c := range count {
			count[v] = off
			off += c
		}
		for _, t := range order {
			v := col[t]
			sorted[count[v]] = t
			count[v]++
		}
		order, sorted = sorted, order
	}
	// One walk sizes the blocks and runs, the next fills them.
	vcol := cols[w*n:]
	blocks, runs := 0, 0
	for j, t := range order {
		switch {
		case j == 0 || !sameKey(cols, n, w, t, order[j-1]):
			blocks++
		case vcol[t] == vcol[order[j-1]]:
			continue
		}
		if vcol[t] != Null {
			runs++
		}
	}
	h.keys = make([]Value, 0, blocks*w)
	h.rows, h.nonNull = make([]int32, 0, blocks), make([]int32, 0, blocks)
	h.start = make([]int32, 0, blocks+1)
	h.vals, h.counts = make([]Value, 0, runs), make([]int32, 0, runs)
	for j, t := range order {
		if j == 0 || !sameKey(cols, n, w, t, order[j-1]) {
			for i := range w {
				h.keys = append(h.keys, cols[i*n+int(t)])
			}
			h.rows = append(h.rows, 0)
			h.nonNull = append(h.nonNull, 0)
			h.start = append(h.start, int32(len(h.vals)))
		}
		k := len(h.rows) - 1
		h.blockOf[t] = int32(k)
		h.rows[k]++
		v := vcol[t]
		if v == Null {
			continue
		}
		h.nonNull[k]++
		if last := len(h.vals) - 1; last >= int(h.start[k]) && h.vals[last] == v {
			h.counts[last]++
		} else {
			h.vals = append(h.vals, v)
			h.counts = append(h.counts, 1)
		}
	}
	h.start = append(h.start, int32(len(h.vals)))
	return h
}

// sameKey reports whether tuples x and y agree on the first w of the
// n-tuple columns cols.
func sameKey(cols []Value, n, w int, x, y int32) bool {
	for i := range w {
		if cols[i*n+int(x)] != cols[i*n+int(y)] {
			return false
		}
	}
	return true
}

// Len reports the number of blocks, one per distinct full key.
func (h *Histogram) Len() int { return len(h.rows) }

// Block returns tuple t's block, -1 when one of its key values is null.
func (h *Histogram) Block(t int) int { return int(h.blockOf[t]) }

// Find returns the block whose key is key (in key-attribute order), -1 when
// no tuple holds it.
func (h *Histogram) Find(key []Value) int {
	if h.width == 1 {
		if i, ok := slices.BinarySearch(h.keys, key[0]); ok {
			return i
		}
		return -1
	}
	lo, hi := 0, len(h.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if slices.Compare(h.keys[m*h.width:(m+1)*h.width], key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(h.rows) && slices.Equal(h.keys[lo*h.width:(lo+1)*h.width], key) {
		return lo
	}
	return -1
}

// Rows returns the number of tuples in block k, 0 for k == -1.
func (h *Histogram) Rows(k int) int32 {
	if k < 0 {
		return 0
	}
	return h.rows[k]
}

// NonNull returns the number of tuples in block k whose V value is
// non-null, 0 for k == -1.
func (h *Histogram) NonNull(k int) int32 {
	if k < 0 {
		return 0
	}
	return h.nonNull[k]
}

// Count returns the number of tuples in block k whose V value is v, 0 for
// k == -1 and for v == Null.
func (h *Histogram) Count(k int, v Value) int32 {
	if k < 0 {
		return 0
	}
	lo, hi := h.start[k], h.start[k+1]
	if i, ok := slices.BinarySearch(h.vals[lo:hi], v); ok {
		return h.counts[lo+int32(i)]
	}
	return 0
}
