package partition

import (
	"testing"

	"holoclean/internal/factor"
)

// chainGraph builds a path graph v0—v1—…—v(n−1) of query variables joined
// by pairwise n-ary factors. A path is 2-colorable, so greedy coloring in
// id order must produce exactly the even/odd classes.
func chainGraph(t *testing.T, n int) *factor.Graph {
	t.Helper()
	g := factor.NewGraph()
	w := g.Weights.Tie(factor.Tie{Family: 112}, 1, true)
	for i := 0; i < n; i++ {
		g.AddVariable([]int32{0, 1}, false, 0)
	}
	for i := 0; i+1 < n; i++ {
		g.AddNary([]int32{int32(i), int32(i + 1)},
			[]factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
	}
	g.Freeze()
	return g
}

func TestColorGraphChain(t *testing.T) {
	g := chainGraph(t, 7)
	classes := ColorGraph(g)
	if len(classes) != 2 {
		t.Fatalf("chain wants 2 colors, got %d: %v", len(classes), classes)
	}
	for c, class := range classes {
		for _, v := range class {
			if int(v)%2 != c {
				t.Fatalf("variable %d in class %d; want even/odd split %v", v, c, classes)
			}
		}
	}
}

func TestColorGraphValidAndComplete(t *testing.T) {
	// A denser graph: a triangle plus pendant vertices and one isolated
	// query variable (no n-ary factor at all), plus evidence that must
	// stay uncolored.
	g := factor.NewGraph()
	w := g.Weights.Tie(factor.Tie{Family: 112}, 1, true)
	for i := 0; i < 6; i++ {
		g.AddVariable([]int32{0, 1}, i == 5, 0) // v5 is evidence
	}
	pair := func(a, b int32) {
		g.AddNary([]int32{a, b}, []factor.Pred{{LeftSlot: 0, RightSlot: 1, Op: factor.OpEq}}, w)
	}
	pair(0, 1)
	pair(1, 2)
	pair(0, 2) // triangle 0-1-2
	pair(2, 3) // pendant
	// v4 isolated, v5 evidence sharing a factor with v0 (ignored).
	pair(0, 5)
	g.Freeze()

	classes := ColorGraph(g)
	colorOf := make(map[int32]int)
	for c, class := range classes {
		if len(class) == 0 {
			t.Fatalf("empty color class %d in %v", c, classes)
		}
		for _, v := range class {
			if _, dup := colorOf[v]; dup {
				t.Fatalf("variable %d colored twice", v)
			}
			colorOf[v] = c
		}
	}
	for v := int32(0); v < 5; v++ {
		if _, ok := colorOf[v]; !ok {
			t.Fatalf("query variable %d left uncolored", v)
		}
	}
	if _, ok := colorOf[5]; ok {
		t.Fatalf("evidence variable colored: %v", classes)
	}
	// Validity: no two variables sharing a factor share a color.
	for v := int32(0); v < 6; v++ {
		if g.IsEvidence(v) {
			continue
		}
		g.VisitQueryNeighbors(v, func(u int32) {
			if colorOf[v] == colorOf[u] {
				t.Fatalf("adjacent variables %d and %d share color %d", v, u, colorOf[v])
			}
		})
	}
	if len(classes) < 3 {
		t.Fatalf("triangle needs >= 3 colors, got %d", len(classes))
	}
}

func TestColorGraphDeterministic(t *testing.T) {
	a := ColorGraph(chainGraph(t, 33))
	b := ColorGraph(chainGraph(t, 33))
	if len(a) != len(b) {
		t.Fatalf("color counts differ: %d vs %d", len(a), len(b))
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatalf("class %d sizes differ", c)
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("class %d differs at %d", c, i)
			}
		}
	}
}

func TestSizeHistogramAndLargestFrac(t *testing.T) {
	comps := [][]int{{1}, {2, 3}, {4, 5}, {6, 7, 8, 9}, make([]int, 9)}
	hist := SizeHistogram(comps)
	want := []int{1, 2, 1, 1} // sizes 1 | 2,2 | 4 | 9→bucket 3
	if len(hist) != len(want) {
		t.Fatalf("hist %v, want %v", hist, want)
	}
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist %v, want %v", hist, want)
		}
	}
	got := LargestFrac(comps)
	if want := 9.0 / 18.0; got != want {
		t.Fatalf("LargestFrac = %v, want %v", got, want)
	}
	if LargestFrac(nil) != 0 {
		t.Fatalf("LargestFrac(nil) != 0")
	}
}
