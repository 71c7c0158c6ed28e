package match

import (
	"fmt"
	"math/rand"
	"testing"

	"semdisco/internal/profile"
)

// TestQoSMarginSumIsOrderFree pins the fixed summation order of QoS
// margins: float addition is not associative, so summing them in map
// iteration order let one (template, profile) pair score differently
// from call to call, which breaks cached ≡ uncached and the MergeRank
// re-check's ordering. Every template has 3–5 floors with margins of
// mixed magnitude; 50 calls on the same pair must give one result, for
// interned templates and for raw ones alike.
func TestQoSMarginSumIsOrderFree(t *testing.T) {
	o := testOntology(t)
	m := New(o)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tpl := &profile.Template{Category: c("Sensor"), MinQoS: map[string]float64{}}
		p := &profile.Profile{Category: c("Radar"), QoS: map[string]float64{}}
		for k, n := 0, 3+rng.Intn(3); k < n; k++ {
			attr := fmt.Sprintf("q%d", k)
			min := rng.Float64() * []float64{1e-3, 1, 1e3}[rng.Intn(3)]
			tpl.MinQoS[attr] = min
			p.QoS[attr] = min * (1 + rng.Float64()) // margin in [0, 1): the score is not clamped
		}
		for _, interned := range []bool{false, true} {
			if interned {
				tpl.Intern(o)
			}
			first := m.Match(tpl, p)
			if first.Degree == Fail {
				t.Fatalf("template %d: floors %v fail profile %v", i, tpl.MinQoS, p.QoS)
			}
			for call := 0; call < 50; call++ {
				if r := m.Match(tpl, p); r != first {
					t.Fatalf("template %d (interned=%v): call %d scored %v, the first call %v", i, interned, call, r.Score, first.Score)
				}
			}
		}
	}
}
