// Greedy factor-graph coloring for chromatic Gibbs scheduling. Two query
// variables that share a grounded n-ary factor have dependent conditionals;
// variables of one color class are pairwise non-adjacent (the chromatic
// sampler of Gonzalez et al.). The sampler sweeps a shard's classes in
// order on one goroutine, so the coloring fixes the order of its draws.
package partition

import "holoclean/internal/factor"

// ColorGraph greedily colors the query variables of a factor graph so
// that no two variables sharing an n-ary factor receive the same color.
// The graph is frozen first if it is not already (freezing is idempotent
// and required for adjacency walks).
// Variables are visited in id order and each takes the smallest color not
// used by an already-colored neighbor, so the coloring is deterministic —
// a given graph always yields the same classes. Evidence variables are never sampled and are left
// uncolored.
//
// The result is the list of color classes: classes[c] holds the variable
// ids of color c in ascending order. Classes are never empty.
func ColorGraph(g *factor.Graph) [][]int32 {
	g.Freeze()
	n := g.NumVars()
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	// usedBy[c] == v+1 marks color c as taken by a neighbor of v; the
	// epoch-style marker avoids clearing the array between variables.
	var usedBy []int32
	numColors := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if g.IsEvidence(v) {
			continue
		}
		g.VisitQueryNeighbors(v, func(u int32) {
			if c := colors[u]; c >= 0 {
				usedBy[c] = v + 1
			}
		})
		c := int32(0)
		for int(c) < len(usedBy) && usedBy[c] == v+1 {
			c++
		}
		colors[v] = c
		if c == numColors {
			numColors++
			usedBy = append(usedBy, 0)
		}
	}
	classes := make([][]int32, numColors)
	for v := int32(0); v < int32(n); v++ {
		if c := colors[v]; c >= 0 {
			classes[c] = append(classes[c], v)
		}
	}
	return classes
}

// SizeHistogram buckets component sizes (tuple counts) into powers of two:
// hist[k] counts the components whose size n satisfies 2^k <= n < 2^(k+1).
// RunStats surfaces it so the giant-component bottleneck — one shard the
// pool cannot split — is observable before it bites.
func SizeHistogram(comps [][]int) []int {
	var hist []int
	for _, c := range comps {
		k := 0
		for n := len(c); n > 1; n >>= 1 {
			k++
		}
		for len(hist) <= k {
			hist = append(hist, 0)
		}
		hist[k]++
	}
	return hist
}

// LargestFrac returns the largest component's share of all tuples that
// appear in any conflict component — the fraction of the conflicted
// workload a single component serializes under component-level sharding.
// It is 0 when there are no components.
func LargestFrac(comps [][]int) float64 {
	total, largest := 0, 0
	for _, c := range comps {
		total += len(c)
		if len(c) > largest {
			largest = len(c)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(largest) / float64(total)
}
