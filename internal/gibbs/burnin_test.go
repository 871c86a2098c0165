package gibbs

import "testing"

// TestBurnInZeroTakesEffect pins that BurnIn = 0 really collects from the
// first sweep: with a fixed seed, the zero-burn-in marginals of a
// correlated (hence sampled) graph must differ from the burned-in ones,
// because the collected sample windows differ. (The cleaner once silently
// coerced zero burn-in to 10, making the two runs identical.)
func TestBurnInZeroTakesEffect(t *testing.T) {
	m0 := Run(chainGraph(10), Config{BurnIn: 0, Samples: 40, Seed: 5})
	m10 := Run(chainGraph(10), Config{BurnIn: 10, Samples: 40, Seed: 5})
	for v := range m0.P {
		for d := range m0.P[v] {
			if m0.P[v][d] != m10.P[v][d] {
				return
			}
		}
	}
	t.Error("burn-in 0 and 10 produced identical marginals; zero burn-in is being coerced")
}
