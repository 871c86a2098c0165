// Package fusion implements the source-reliability estimation HoloClean
// uses on datasets with provenance (Section 6.2.1: "it uses the
// information on which source provided which tuple to estimate the
// reliability of different sources [35]"). It is a compact counterpart of
// SLiMFast [35] / classic truth-finding [30]: tuples reporting on the
// same entity attribute form a voting group, and source accuracies and
// weighted vote shares are refined by a fixpoint iteration — accurate
// sources get larger votes, and a source's accuracy is the average vote
// share of the values it reports.
package fusion

import (
	"math"
	"slices"

	"holoclean/internal/dataset"
	"holoclean/internal/dc"
)

// clamp bounds an accuracy estimate away from the degenerate 0/1 values
// so log-likelihoods stay finite and EM cannot lock a source in.
func clamp(a float64) float64 {
	if a == 0 {
		a = 0.5 // unknown source
	}
	if a < 0.05 {
		return 0.05
	}
	if a > 0.95 {
		return 0.95
	}
	return a
}

// Group keys tuples that report on the same entity attribute: for an
// FD-shaped constraint key… → value, tuples agreeing on the key attributes
// vote on the value attribute.
type Group struct {
	ValueAttr int
	Tuples    []int
}

// Votes holds the fused estimates for one dataset.
type Votes struct {
	// Accuracy is the estimated reliability of each source.
	Accuracy map[string]float64
	// shares[cell] is the weighted vote distribution over values of the
	// cell's voting group (nil for cells outside any group).
	shares map[dataset.Cell]map[dataset.Value]float64
}

// Share returns the fused vote share of value v for cell c, and whether
// the cell belongs to a voting group.
func (vt *Votes) Share(c dataset.Cell, v dataset.Value) (float64, bool) {
	m, ok := vt.shares[c]
	if !ok {
		return 0, false
	}
	return m[v], true
}

// groupsFor buckets tuples by their key-attribute values. Groups come back
// ordered by first tuple: Estimate accumulates floats across them, and a
// map-ordered sum would differ in the last ulp from run to run.
func groupsFor(ds *dataset.Dataset, key []int, value int) []Group {
	buckets := make(map[string][]int)
	var kb []byte
	for t := 0; t < ds.NumTuples(); t++ {
		kb = kb[:0]
		null := false
		for _, a := range key {
			v := ds.Get(t, a)
			if v == dataset.Null {
				null = true
				break
			}
			kb = append(kb, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), '|')
		}
		if null {
			continue
		}
		buckets[string(kb)] = append(buckets[string(kb)], t)
	}
	var out []Group
	for _, tuples := range buckets {
		if len(tuples) > 1 {
			out = append(out, Group{ValueAttr: value, Tuples: tuples})
		}
	}
	slices.SortFunc(out, func(a, b Group) int { return a.Tuples[0] - b.Tuples[0] })
	return out
}

// Estimate runs the accuracy/vote fixpoint over the voting groups induced
// by the FD-shaped constraints (dc.Bound.FDAttr). iterations defaults to
// 5 when <= 0.
func Estimate(ds *dataset.Dataset, bounds []*dc.Bound, iterations int) *Votes {
	if iterations <= 0 {
		iterations = 5
	}
	var groups []Group
	seen := make(map[int]bool) // avoid duplicate (key,value) group sets per value attr
	for _, b := range bounds {
		value := b.FDAttr
		if value < 0 || seen[value] {
			continue
		}
		seen[value] = true
		// An FD-shaped constraint joins every key attribute to itself.
		key := make([]int, len(b.Joins))
		for i, j := range b.Joins {
			key[i] = j[0]
		}
		groups = append(groups, groupsFor(ds, key, value)...)
	}
	vt := &Votes{
		Accuracy: make(map[string]float64),
		shares:   make(map[dataset.Cell]map[dataset.Value]float64),
	}
	if len(groups) == 0 {
		return vt
	}
	// Initialize all sources at the same moderate accuracy.
	srcOf := func(t int) string { return ds.Source(t) }
	for t := 0; t < ds.NumTuples(); t++ {
		if s := srcOf(t); s != "" {
			vt.Accuracy[s] = 0.8
		}
	}
	groupShare := make([]map[dataset.Value]float64, len(groups))
	var vals []dataset.Value
	for it := 0; it < iterations; it++ {
		// E-step: Dawid–Skene style posterior per group. Treating each
		// report as an independent observation of the latent true value,
		//   P(v | reports) ∝ Π_r [ α_s(r) if v_r = v else (1−α_s(r))/(K−1) ]
		// computed in log space; K is the number of distinct reported
		// values. With many reports this sharpens the distribution far
		// beyond a raw vote share, which is what lets a minority of
		// accurate sources outvote correlated unreliable ones.
		for gi, g := range groups {
			// The distinct reported values, sorted: the normaliser below is
			// a float sum and must accumulate in a fixed order.
			vals = vals[:0]
			for _, t := range g.Tuples {
				if v := ds.Get(t, g.ValueAttr); v != dataset.Null {
					vals = append(vals, v)
				}
			}
			slices.Sort(vals)
			vals = slices.Compact(vals)
			k := float64(len(vals))
			votes := make(map[dataset.Value]float64, len(vals))
			groupShare[gi] = votes
			maxLog := math.Inf(-1)
			for _, v := range vals {
				logp := 0.0
				for _, t := range g.Tuples {
					r := ds.Get(t, g.ValueAttr)
					if r == dataset.Null {
						continue
					}
					a := clamp(vt.Accuracy[srcOf(t)])
					if r == v {
						logp += math.Log(a)
					} else if k > 1 {
						logp += math.Log((1 - a) / (k - 1))
					}
				}
				votes[v] = logp
				maxLog = max(maxLog, logp)
			}
			// Softmax in place.
			var z float64
			for _, v := range vals {
				votes[v] = math.Exp(votes[v] - maxLog)
				z += votes[v]
			}
			for _, v := range vals {
				votes[v] /= z
			}
		}
		// M-step: source accuracy = mean posterior of its reports.
		sum := make(map[string]float64)
		cnt := make(map[string]int)
		for gi, g := range groups {
			for _, t := range g.Tuples {
				v := ds.Get(t, g.ValueAttr)
				if v == dataset.Null {
					continue
				}
				s := srcOf(t)
				if s == "" {
					continue
				}
				sum[s] += groupShare[gi][v]
				cnt[s]++
			}
		}
		for s := range vt.Accuracy {
			if cnt[s] > 0 {
				vt.Accuracy[s] = sum[s] / float64(cnt[s])
			}
		}
	}
	for gi, g := range groups {
		for _, t := range g.Tuples {
			c := dataset.Cell{Tuple: t, Attr: g.ValueAttr}
			if existing, ok := vt.shares[c]; ok {
				// Cell already covered by another constraint's group:
				// merge by averaging shares.
				for v, s := range groupShare[gi] {
					existing[v] = (existing[v] + s) / 2
				}
				continue
			}
			m := make(map[dataset.Value]float64, len(groupShare[gi]))
			for v, s := range groupShare[gi] {
				m[v] = s
			}
			vt.shares[c] = m
		}
	}
	return vt
}
