package violation

import (
	"holoclean/internal/dataset"
)

// Hypergraph is the conflict hypergraph: nodes are cells that participate
// in detected violations, hyperedges link the cells of one violation and
// are annotated with the violated constraint (Section 5.1.2).
//
// It is stored in CSR form. The cells of every edge sit in one arena that
// EdgeCells slices; the edges of a cell are cellEdges[cellStart[id]:
// cellStart[id+1]] for its dense id tuple·attrs + attr, ascending; the
// edges of constraint ci are conEdges[conStart[ci]:conStart[ci+1]].
type Hypergraph struct {
	Violations []Violation
	EdgeCells  [][]dataset.Cell // EdgeCells[i] = cells of Violations[i]

	tuples, attrs int
	cellStart     []int32
	cellEdges     []int32
	conStart      []int32
	conEdges      []int32
}

// BuildHypergraph materializes the conflict hypergraph from the detector's
// violations.
func BuildHypergraph(d *Detector, violations []Violation) *Hypergraph {
	h := &Hypergraph{
		Violations: violations,
		EdgeCells:  make([][]dataset.Cell, len(violations)),
		tuples:     d.ds.NumTuples(),
		attrs:      d.ds.NumAttrs(),
		cellStart:  make([]int32, d.ds.NumCells()+1),
		conStart:   make([]int32, len(d.bounds)+1),
	}
	// Count every cell's and every constraint's edges, make the counts
	// running totals, then place the edges back to front: each key's
	// edges end up ascending, and its total is decremented to its start.
	size := 0
	for _, v := range violations {
		size += len(d.bounds[v.Constraint].Refs)
	}
	arena := make([]dataset.Cell, 0, size)
	for i, v := range violations {
		lo := len(arena)
		arena = d.appendCells(arena, v)
		h.EdgeCells[i] = arena[lo:len(arena):len(arena)]
		for _, c := range h.EdgeCells[i] {
			h.cellStart[h.id(c)]++
		}
		h.conStart[v.Constraint]++
	}
	runningTotals(h.cellStart)
	runningTotals(h.conStart)
	h.cellEdges = make([]int32, len(arena))
	h.conEdges = make([]int32, len(violations))
	for i := len(violations) - 1; i >= 0; i-- {
		for _, c := range h.EdgeCells[i] {
			id := h.id(c)
			h.cellStart[id]--
			h.cellEdges[h.cellStart[id]] = int32(i)
		}
		ci := violations[i].Constraint
		h.conStart[ci]--
		h.conEdges[h.conStart[ci]] = int32(i)
	}
	return h
}

func runningTotals(s []int32) {
	for k := 1; k < len(s); k++ {
		s[k] += s[k-1]
	}
}

// id returns the dense id of cell c.
func (h *Hypergraph) id(c dataset.Cell) int { return c.Tuple*h.attrs + c.Attr }

// NumEdges returns the number of hyperedges (violations).
func (h *Hypergraph) NumEdges() int { return len(h.Violations) }

// NumTuples returns the size of the relation the hypergraph was built
// over: every tuple of a violation is below it.
func (h *Hypergraph) NumTuples() int { return h.tuples }

// Cells returns all distinct cells participating in any violation, in
// (tuple, attribute) order.
func (h *Hypergraph) Cells() []dataset.Cell {
	n := 0
	for id := 0; id+1 < len(h.cellStart); id++ {
		if h.cellStart[id+1] > h.cellStart[id] {
			n++
		}
	}
	out := make([]dataset.Cell, 0, n)
	for id := 0; id+1 < len(h.cellStart); id++ {
		if h.cellStart[id+1] > h.cellStart[id] {
			out = append(out, dataset.Cell{Tuple: id / h.attrs, Attr: id % h.attrs})
		}
	}
	return out
}

// EdgesOf returns the indices of hyperedges containing cell c, ascending.
func (h *Hypergraph) EdgesOf(c dataset.Cell) []int32 {
	if c.Tuple < 0 || c.Tuple >= h.tuples || c.Attr < 0 || c.Attr >= h.attrs {
		return nil
	}
	id := h.id(c)
	return h.cellEdges[h.cellStart[id]:h.cellStart[id+1]]
}

// Degree returns the number of violations cell c participates in.
func (h *Hypergraph) Degree(c dataset.Cell) int { return len(h.EdgesOf(c)) }

// EdgesOfConstraint returns the hyperedge indices for violations of
// constraint ci, ascending: the induced subgraph H_σ of Algorithm 3.
func (h *Hypergraph) EdgesOfConstraint(ci int) []int32 {
	if ci < 0 || ci >= h.NumConstraints() {
		return nil
	}
	return h.conEdges[h.conStart[ci]:h.conStart[ci+1]]
}

// NumConstraints returns how many constraints the hypergraph was built over.
func (h *Hypergraph) NumConstraints() int { return len(h.conStart) - 1 }
