package wire

import (
	"reflect"
	"sort"
	"testing"

	"semdisco/internal/describe"
	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
)

// queryCorpusBodies seeds the fuzzer with the query shapes the sim
// workloads actually send: encoded semantic templates (category +
// outputs + QoS + keywords at varying match floors), UDDI-style KV
// partial templates and exact URI lookups, across the response-control
// and fan-out option space (incl. the NoCache bypass flag).
func queryCorpusBodies(gen *uuid.Generator) []Body {
	const ns = "http://semdisco.example/onto#"
	c := func(name string) ontology.Class { return ontology.Class(ns + name) }
	payloads := [][]byte{
		(&describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}).Encode(),
		(&describe.SemanticQuery{
			Template: &profile.Template{
				Category:        c("RadarFeed"),
				RequiredOutputs: []ontology.Class{c("Track"), c("Position")},
				ProvidedInputs:  []ontology.Class{c("Region")},
				MinQoS:          map[string]float64{"resolutionM": 10, "freshnessS": 2},
				Keywords:        []string{"coastal", "radar"},
			},
			MinDegree: match.Subsumed,
		}).Encode(),
		(&describe.SemanticQuery{
			Template:  &profile.Template{Category: c("InfraredCameraFeed")},
			MinDegree: match.Exact,
		}).Encode(),
		(&describe.KVQuery{NamePrefix: "weather", TypeURI: "urn:svc:weather",
			Attrs: map[string]string{"region": "coastal", "tier": "gold"}}).Encode(),
		(&describe.URIQuery{TypeURI: "urn:svc:map"}).Encode(),
	}
	kinds := []describe.Kind{
		describe.KindSemantic, describe.KindSemantic, describe.KindSemantic,
		describe.KindKV, describe.KindURI,
	}
	var bodies []Body
	for i, p := range payloads {
		bodies = append(bodies,
			Query{
				QueryID: gen.New(), Kind: kinds[i], Payload: p,
				MaxResults: uint16(1 << i), TTL: uint8(i), Strategy: Strategy(i % 2),
				Walkers: uint8(i % 3), ReplyAddr: "lan0/c1", NoCache: i%2 == 1,
			},
			PeerQuery{QueryID: gen.New(), Kind: kinds[i], Payload: p, ReplyAddr: "lan0/r1"},
		)
	}
	bodies = append(bodies, Query{
		QueryID: gen.New(), Kind: describe.KindSemantic, Payload: payloads[1],
		BestOnly: true, TTL: 8, ReplyAddr: "wan/c9", NoCache: true,
	})
	// Domain-pinned queries: same-domain confinement and the cross-domain
	// cascade both start from this wire shape.
	bodies = append(bodies, Query{
		QueryID: gen.New(), Kind: describe.KindSemantic, Payload: payloads[0],
		MaxResults: 4, TTL: 3, ReplyAddr: "lan0/c1", Domain: "edge.west",
	})
	return bodies
}

// FuzzUnmarshal hammers the wire decoder with mutated real messages,
// seeded from the golden corpus (one frame of every message type and
// description kind, plus a batch frame); any panic or
// accepted-garbage-that-remarshal-differs is a bug.
func FuzzUnmarshal(f *testing.F) {
	files := readGolden(f)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(files[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode to the same
		// envelope (canonical round trip).
		re, err := Marshal(env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-marshal: %v", err)
		}
		env2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-marshaled bytes do not decode: %v", err)
		}
		if !reflect.DeepEqual(env, env2) {
			t.Fatalf("round trip diverged:\n%#v\n%#v", env, env2)
		}
	})
}
