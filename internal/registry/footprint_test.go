package registry

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

// heapBytesPerAdvert holds the resident heap bytes one advert of each
// kind cost when the gate was set (go1.24, linux/amd64), as
// TestHeapBytesPerAdvert measures them. A change that lowers a figure
// lowers its entry; one that raises it past the gate says why.
var heapBytesPerAdvert = map[describe.Kind]float64{
	describe.KindURI:      1127,
	describe.KindKV:       1509,
	describe.KindSemantic: 1424,
}

// TestHeapBytesPerAdvert gates the resident cost of an advert per
// description kind: 10^4 adverts are published into a fresh store, and
// the GC-settled heap growth per advert must stay within 1.10 × the
// committed figure. It counts everything a publish leaves behind: the
// payload, the arena slot, the index postings and the lease heap.
func TestHeapBytesPerAdvert(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const n = 10_000
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	pop := workload.GenProfiles(workload.PopulationSpec{N: n, Classes: levels[5], DataClasses: levels[3], OntologyIRI: onto.IRI, Seed: 1})
	payload := map[describe.Kind]func(i int) []byte{
		describe.KindURI: func(i int) []byte {
			return (&describe.URIDescription{
				TypeURI:    fmt.Sprintf("urn:type:%d", i%256),
				ServiceURI: fmt.Sprintf("urn:svc:%d", i),
				Name:       "svc", Addr: "lan0/p",
			}).Encode()
		},
		describe.KindKV: func(i int) []byte {
			return (&describe.KVDescription{
				ServiceURI: fmt.Sprintf("urn:svc:%d", i),
				Name:       "svc",
				TypeURI:    fmt.Sprintf("urn:type:%d", i%256),
				Attrs:      map[string]string{"region": fmt.Sprintf("r%d", i%16)},
				Addr:       "lan0/p",
			}).Encode()
		},
		describe.KindSemantic: func(i int) []byte { return pop[i].Encode() },
	}
	for _, kind := range []describe.Kind{describe.KindURI, describe.KindKV, describe.KindSemantic} {
		t.Run(kind.String(), func(t *testing.T) {
			s := New(Options{
				Models: describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto)),
				Leases: lease.Policy{Max: time.Hour, Default: time.Hour},
			})
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range n {
				adv := wire.Advertisement{
					ID: gen.New(), Provider: gen.New(), ProviderAddr: "lan0/p",
					Kind: kind, Payload: payload[kind](i), LeaseMillis: 3_600_000, Version: 1,
				}
				if _, _, err := s.Publish(adv, t0); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			got := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
			t.Logf("%s: %.0f resident heap bytes per advert", kind, got)
			if limit := 1.10 * heapBytesPerAdvert[kind]; got > limit {
				t.Fatalf("%s adverts cost %.0f heap bytes each, over the gate of %.0f B (1.10 × %.0f B)", kind, got, limit, heapBytesPerAdvert[kind])
			}
		})
	}
}
