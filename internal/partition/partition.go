// Package partition implements HoloClean's tuple-partitioning optimization
// (Section 5.1.2, Algorithm 3). Grounding denial-constraint factors over
// all tuple pairs is quadratic in |D|; Algorithm 3 instead groups tuples
// by the connected components of the per-constraint conflict subgraph H_σ
// and grounds factors only within groups, bounding the factor count by
// O(Σ_g |g|²) instead of O(|Σ|·|D|²).
package partition

import (
	"sort"
	"strconv"

	"holoclean/internal/dataset"
	"holoclean/internal/violation"
)

// Group is one tuple group: the tuples of one connected component of H_σ.
type Group struct {
	Constraint int
	Tuples     []int // ascending
}

// unionFind is a disjoint-set structure over arbitrary int keys.
type unionFind struct {
	parent map[int]int
	rank   map[int]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[int]int), rank: make(map[int]int)}
}

func (u *unionFind) find(x int) int {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// Groups runs Algorithm 3: for each constraint σ it takes the subgraph of
// the conflict hypergraph containing only σ's violations and emits one
// group per connected component (components join tuples that co-appear in
// a violation). The result is deterministic: groups are sorted by
// constraint, then by smallest member tuple.
func Groups(h *violation.Hypergraph) []Group {
	var out []Group
	for ci := 0; ci < h.NumConstraints(); ci++ {
		uf := newUnionFind()
		members := make(map[int]struct{})
		for _, ei := range h.EdgesOfConstraint(ci) {
			v := h.Violations[ei]
			members[v.T1] = struct{}{}
			if v.T2 >= 0 {
				members[v.T2] = struct{}{}
				uf.union(v.T1, v.T2)
			}
		}
		comps := make(map[int][]int)
		for t := range members {
			root := uf.find(t)
			comps[root] = append(comps[root], t)
		}
		for _, tuples := range comps {
			sort.Ints(tuples)
			out = append(out, Group{Constraint: ci, Tuples: tuples})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Constraint != out[j].Constraint {
			return out[i].Constraint < out[j].Constraint
		}
		return out[i].Tuples[0] < out[j].Tuples[0]
	})
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
	uf := newUnionFind()
	members := make(map[int]struct{})
	for _, v := range h.Violations {
		members[v.T1] = struct{}{}
		if v.T2 >= 0 {
			members[v.T2] = struct{}{}
			uf.union(v.T1, v.T2)
		}
	}
	comps := make(map[int][]int)
	for t := range members {
		root := uf.find(t)
		comps[root] = append(comps[root], t)
	}
	out := make([][]int, 0, len(comps))
	for _, tuples := range comps {
		sort.Ints(tuples)
		out = append(out, tuples)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Touched reports, for each tuple group, whether it intersects the dirty
// tuple set — the invalidation primitive of incremental re-cleaning: a
// conflict component none of whose tuples changed grounds to the same
// factors and can reuse its cached inference results.
func Touched(comps [][]int, dirty map[int]bool) []bool {
	out := make([]bool, len(comps))
	for i, tuples := range comps {
		for _, t := range tuples {
			if dirty[t] {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Fingerprint renders a cell group compactly for composition matching
// across runs: two shards with equal fingerprints own exactly the same
// cells in the same order. Incremental sessions use it to verify that a
// cached shard's composition survived a delta before reusing its results.
func Fingerprint(cells []dataset.Cell) string {
	buf := make([]byte, 0, len(cells)*8)
	for _, c := range cells {
		buf = strconv.AppendInt(buf, int64(c.Tuple), 36)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(c.Attr), 36)
		buf = append(buf, ';')
	}
	return string(buf)
}
