package registry

import (
	"fmt"
	"math/rand"
	"testing"

	"semdisco/internal/describe"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// randomHits draws n finite hits whose degree, score and service key
// come from small pools, so ties at every level of rankCompare are
// common. IDs come from a pool of idPool IDs: a small pool forces equal
// IDs too, while idPool >= n with distinct draws models a real store.
func randomHits(rng *rand.Rand, n int, ids []uuid.UUID, distinctIDs bool) []hit {
	scores := []float64{0, 0.25, 0.5, 1, rng.Float64(), -rng.Float64()}
	keys := []string{"", "urn:svc:a", "urn:svc:b"}
	perm := rng.Perm(len(ids))
	hits := make([]hit, n)
	for i := range hits {
		id := ids[rng.Intn(len(ids))]
		if distinctIDs {
			id = ids[perm[i]]
		}
		hits[i] = hit{
			adv: wire.Advertisement{ID: id},
			key: keys[rng.Intn(len(keys))],
			ev: describe.Evaluation{
				Matched: true,
				Degree:  uint8(rng.Intn(3)),
				Score:   scores[rng.Intn(len(scores))],
			},
		}
	}
	return hits
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestRankCompareIsStrictTotalOrder checks the properties the top-K
// selection relies on over random finite evaluations with forced ties:
// rankCompare is antisymmetric and transitive, and it returns 0 only
// for two hits with the same service key and advertisement ID — so the
// order is strict over any set of distinct adverts.
func TestRankCompareIsStrictTotalOrder(t *testing.T) {
	gen := uuid.NewGenerator(26)
	ids := make([]uuid.UUID, 4)
	for i := range ids {
		ids[i] = gen.New()
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hits := randomHits(rng, 12, ids, false)
		cmp := func(i, j int) int { return hitCompare(&hits[i], &hits[j]) }
		for i := range hits {
			for j := range hits {
				c := cmp(i, j)
				if sign(c) != -sign(cmp(j, i)) {
					t.Fatalf("seed %d: not antisymmetric: cmp(%v, %v) = %d, reverse %d", seed, hits[i], hits[j], c, cmp(j, i))
				}
				a, b := &hits[i], &hits[j]
				if c == 0 && (a.key != b.key || a.adv.ID != b.adv.ID) {
					t.Fatalf("seed %d: cmp(%v, %v) = 0 for different key or ID", seed, *a, *b)
				}
				for k := range hits {
					if c <= 0 && cmp(j, k) <= 0 && cmp(i, k) > 0 {
						t.Fatalf("seed %d: not transitive: %v <= %v <= %v but cmp(first, last) > 0", seed, hits[i], hits[j], hits[k])
					}
				}
			}
		}
	}
}

// TestSortHitsPermutationInvariant checks that sortHits orders a set of
// distinct adverts the same way whatever order they arrive in — the
// property that makes a ranked result independent of shard order.
func TestSortHitsPermutationInvariant(t *testing.T) {
	gen := uuid.NewGenerator(27)
	ids := make([]uuid.UUID, 16)
	for i := range ids {
		ids[i] = gen.New()
	}
	order := func(hits []hit) string {
		s := ""
		for _, h := range hits {
			s += h.adv.ID.String() + " "
		}
		return s
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomHits(rng, 1+rng.Intn(len(ids)), ids, true)
		ref := append([]hit(nil), base...)
		sortHits(ref)
		want := order(ref)
		for p := 0; p < 8; p++ {
			shuffled := append([]hit(nil), base...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sortHits(shuffled)
			if got := order(shuffled); got != want {
				t.Fatalf("seed %d, permutation %d: order depends on input order\n got %s\nwant %s", seed, p, got, want)
			}
		}
	}
}

// String prints a hit in failure messages as its service key, degree,
// score and ID.
func (h hit) String() string {
	return fmt.Sprintf("{%q d=%d s=%g %s}", h.key, h.ev.Degree, h.ev.Score, h.adv.ID.Short())
}
