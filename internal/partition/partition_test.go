package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
	"holoclean/internal/violation"
)

func buildHypergraph(t *testing.T, rows [][]string, constraints []*dc.Constraint) *violation.Hypergraph {
	t.Helper()
	ds := dataset.New([]string{"A", "B"})
	for _, r := range rows {
		ds.Append(r)
	}
	det, err := violation.NewDetector(ds, constraints)
	if err != nil {
		t.Fatal(err)
	}
	return violation.BuildHypergraph(det, det.Detect())
}

func TestGroupsConnectedComponents(t *testing.T) {
	// Two separate conflict clusters for the FD A→B:
	// {0,1,2} share key "a" with conflicting values, {3,4} share "b".
	h := buildHypergraph(t, [][]string{
		{"a", "1"}, {"a", "2"}, {"a", "3"},
		{"b", "1"}, {"b", "2"},
		{"c", "9"}, // no conflict
	}, dc.FD("fd", []string{"A"}, []string{"B"}))
	groups := Groups(h)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if len(groups[0].Tuples) != 3 || groups[0].Tuples[0] != 0 {
		t.Errorf("first group = %v, want [0 1 2]", groups[0].Tuples)
	}
	if len(groups[1].Tuples) != 2 || groups[1].Tuples[0] != 3 {
		t.Errorf("second group = %v, want [3 4]", groups[1].Tuples)
	}
	// Tuple 5 is in no group.
	for _, g := range groups {
		for _, tu := range g.Tuples {
			if tu == 5 {
				t.Errorf("conflict-free tuple must not appear in groups")
			}
		}
	}
}

func TestGroupsPerConstraint(t *testing.T) {
	// Same data, two constraints: each constraint gets its own groups.
	cs := append(dc.FD("fd1", []string{"A"}, []string{"B"}),
		dc.FD("fd2", []string{"B"}, []string{"A"})...)
	h := buildHypergraph(t, [][]string{
		{"a", "1"}, {"a", "2"}, {"x", "2"},
	}, cs)
	groups := Groups(h)
	byConstraint := map[int]int{}
	for _, g := range groups {
		byConstraint[g.Constraint]++
	}
	// fd1: tuples 0,1 conflict (a→1 vs a→2). fd2: tuples 1,2 (2→a vs 2→x).
	if byConstraint[0] != 1 || byConstraint[1] != 1 {
		t.Errorf("per-constraint groups = %v", byConstraint)
	}
}

// TestGroupsArePartition: within one constraint, groups are disjoint and
// cover exactly the tuples appearing in that constraint's violations.
func TestGroupsArePartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := dataset.New([]string{"A", "B"})
		keys := []string{"k1", "k2", "k3", "k4"}
		vals := []string{"1", "2", "3"}
		for i := 0; i < 40; i++ {
			ds.Append([]string{keys[rng.Intn(4)], vals[rng.Intn(3)]})
		}
		cs := dc.FD("fd", []string{"A"}, []string{"B"})
		det, err := violation.NewDetector(ds, cs)
		if err != nil {
			return false
		}
		viols := det.Detect()
		h := violation.BuildHypergraph(det, viols)
		groups := Groups(h)

		seen := map[int]bool{}
		for _, g := range groups {
			if g.Constraint != 0 {
				return false
			}
			for _, tu := range g.Tuples {
				if seen[tu] {
					return false // overlap
				}
				seen[tu] = true
			}
		}
		// Coverage: every tuple of every violation is in some group.
		for _, v := range viols {
			if !seen[v.T1] || (v.T2 >= 0 && !seen[v.T2]) {
				return false
			}
		}
		// Co-violation tuples share a group.
		groupOf := map[int]int{}
		for gi, g := range groups {
			for _, tu := range g.Tuples {
				groupOf[tu] = gi
			}
		}
		for _, v := range viols {
			if v.T2 >= 0 && groupOf[v.T1] != groupOf[v.T2] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUnionFind(t *testing.T) {
	u := newUnionFind()
	u.union(1, 2)
	u.union(3, 4)
	if u.find(1) != u.find(2) || u.find(3) != u.find(4) {
		t.Errorf("union failed")
	}
	if u.find(1) == u.find(3) {
		t.Errorf("separate components merged")
	}
	u.union(2, 3)
	if u.find(1) != u.find(4) {
		t.Errorf("transitive union failed")
	}
	if u.find(99) != 99 {
		t.Errorf("fresh element should be its own root")
	}
}

func TestComponentsUnionAcrossConstraints(t *testing.T) {
	// fd joins {0,1} and {3,4}; the B→A direction joins {1,2} through the
	// shared B value "1", merging {0,1,2} into one global component even
	// though no single constraint connects all three.
	var cs []*dc.Constraint
	cs = append(cs, dc.FD("fd", []string{"A"}, []string{"B"})...)
	cs = append(cs, dc.FD("fd2", []string{"B"}, []string{"A"})...)
	h := buildHypergraph(t, [][]string{
		{"a", "1"}, {"a", "2"}, {"x", "2"},
		{"b", "7"}, {"b", "8"},
		{"c", "9"},
	}, cs)
	comps := Components(h)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][1] != 1 || comps[0][2] != 2 {
		t.Errorf("first component = %v, want [0 1 2]", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 3 {
		t.Errorf("second component = %v, want [3 4]", comps[1])
	}
}

func TestComponentsDeterministic(t *testing.T) {
	cs := dc.FD("fd", []string{"A"}, []string{"B"})
	h := buildHypergraph(t, [][]string{
		{"a", "1"}, {"a", "2"}, {"b", "1"}, {"b", "2"}, {"c", "1"}, {"c", "2"},
	}, cs)
	first := Components(h)
	for i := 0; i < 10; i++ {
		again := Components(h)
		if len(again) != len(first) {
			t.Fatalf("component count changed: %d vs %d", len(again), len(first))
		}
		for j := range first {
			if len(first[j]) != len(again[j]) {
				t.Fatalf("component %d changed size", j)
			}
			for k := range first[j] {
				if first[j][k] != again[j][k] {
					t.Fatalf("component %d differs at %d", j, k)
				}
			}
		}
	}
}
