package dataset

import "slices"

// Blocks groups tuples by label in compressed sparse rows: the tuples
// carrying labels[i] are tuples[start[i]:start[i+1]], ascending, and
// labels ascend. It is the one "value → tuples that hold it" index that
// violation detection, denial-constraint grounding and reclean
// invalidation join through. A tuple may carry several labels (a noisy
// cell's candidate set) or none (a null cell).
type Blocks struct {
	labels []Value
	start  []int32
	tuples []int32
}

// NewBlocks indexes tuples [0, n) under the labels that labels appends
// for each tuple to dst. It counting-sorts over value ids, so the build is
// linear in n, the labels emitted and the largest label.
func NewBlocks(n int, labels func(t int, dst []Value) []Value) *Blocks {
	// flat holds every tuple's labels in tuple order, ends[t] the end of
	// tuple t's run; most cells carry one label.
	flat := make([]Value, 0, n)
	ends := make([]int32, n)
	for t := range n {
		flat = labels(t, flat)
		ends[t] = int32(len(flat))
	}
	var count []int32
	if len(flat) > 0 {
		count = make([]int32, slices.Max(flat)+1)
	}
	distinct := 0
	for _, v := range flat {
		if count[v] == 0 {
			distinct++
		}
		count[v]++
	}
	b := &Blocks{
		labels: make([]Value, 0, distinct),
		start:  make([]int32, 0, distinct+1),
		tuples: make([]int32, len(flat)),
	}
	// count[v] becomes the next free slot of v's block.
	off := int32(0)
	for v, c := range count {
		if c > 0 {
			b.labels = append(b.labels, Value(v))
			b.start = append(b.start, off)
			count[v] = off
			off += c
		}
	}
	b.start = append(b.start, off)
	lo := int32(0)
	for t, hi := range ends {
		for _, v := range flat[lo:hi] {
			b.tuples[count[v]] = int32(t)
			count[v]++
		}
		lo = hi
	}
	return b
}

// Len reports the number of blocks, one per distinct label.
func (b *Blocks) Len() int { return len(b.labels) }

// Block returns the tuples of the i-th block in label order, ascending.
func (b *Blocks) Block(i int) []int32 { return b.tuples[b.start[i]:b.start[i+1]] }

// Of returns the tuples carrying label v, ascending; empty when none does.
func (b *Blocks) Of(v Value) []int32 {
	i, ok := slices.BinarySearch(b.labels, v)
	if !ok {
		return nil
	}
	return b.Block(i)
}
