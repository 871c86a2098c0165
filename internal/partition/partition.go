// Package partition implements HoloClean's tuple-partitioning optimization
// (Section 5.1.2, Algorithm 3). Grounding denial-constraint factors over
// all tuple pairs is quadratic in |D|; Algorithm 3 instead groups tuples
// by the connected components of the per-constraint conflict subgraph H_σ
// and grounds factors only within groups, bounding the factor count by
// O(Σ_g |g|²) instead of O(|Σ|·|D|²).
package partition

import (
	"slices"

	"holoclean/internal/violation"
)

// Group is one tuple group: the tuples of one connected component of H_σ.
type Group struct {
	Constraint int
	Tuples     []int // ascending
}

// unionFind is a disjoint-set forest over the dense keys 0..n-1. A union
// hangs the larger root under the smaller, so the root of a set is its
// smallest member.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	u.parent[max(ra, rb)] = int32(min(ra, rb))
}

// sets returns the sets of the ascending members, each ascending, ordered
// by smallest member. slot is scratch indexed by key.
func (u *unionFind) sets(members []int, slot []int32) [][]int {
	var out [][]int
	for _, t := range members {
		if r := u.find(t); r == t {
			slot[t] = int32(len(out))
			out = append(out, []int{t})
		} else {
			out[slot[r]] = append(out[slot[r]], t)
		}
	}
	return out
}

// Groups runs Algorithm 3: for each constraint σ it takes the subgraph of
// the conflict hypergraph containing only σ's violations and emits one
// group per connected component (components join tuples that co-appear in
// a violation). The result is deterministic: groups are sorted by
// constraint, then by smallest member tuple.
func Groups(h *violation.Hypergraph) []Group {
	n := h.NumTuples()
	uf, slot, seen := newUnionFind(n), make([]int32, n), make([]bool, n)
	var out []Group
	var members []int
	for ci := 0; ci < h.NumConstraints(); ci++ {
		members = members[:0]
		for _, ei := range h.EdgesOfConstraint(ci) {
			v := h.Violations[ei]
			for _, t := range [2]int{v.T1, v.T2} {
				if t >= 0 && !seen[t] {
					seen[t] = true
					members = append(members, t)
				}
			}
			if v.T2 >= 0 {
				uf.union(v.T1, v.T2)
			}
		}
		slices.Sort(members)
		for _, tuples := range uf.sets(members, slot) {
			out = append(out, Group{Constraint: ci, Tuples: tuples})
		}
		for _, t := range members { // the next constraint starts from singletons
			seen[t] = false
			uf.parent[t] = int32(t)
		}
	}
	return out
}

// Components returns the connected components of the global conflict
// graph: tuples are joined when they co-appear in a violation of any
// constraint (the union over σ of the per-constraint subgraphs H_σ that
// Groups partitions separately). Cells of tuples in different components
// never share a grounded factor, so the end-to-end pipeline can ground,
// learn, and infer each component independently — the decomposition the
// sharded Cleaner.Clean pipeline runs on. The result is deterministic:
// tuples ascend within a component and components are ordered by their
// smallest member tuple.
func Components(h *violation.Hypergraph) [][]int {
	n := h.NumTuples()
	uf, seen := newUnionFind(n), make([]bool, n)
	for _, v := range h.Violations {
		seen[v.T1] = true
		if v.T2 >= 0 {
			seen[v.T2] = true
			uf.union(v.T1, v.T2)
		}
	}
	var members []int
	for t, ok := range seen {
		if ok {
			members = append(members, t)
		}
	}
	return uf.sets(members, make([]int32, n))
}
