package runtime

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"semdisco/internal/describe"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// ownedCopier is the fuzz handler. The envelope Dispatch hands it is
// borrowed from the Env's decoder, so it takes an owned copy inside the
// call — by re-marshaling and Unmarshaling — and checks the copy equals
// what it was given.
type ownedCopier struct {
	t    *testing.T
	seen []*wire.Envelope
}

func (h *ownedCopier) HandleEnvelope(env *wire.Envelope, _ transport.Addr) {
	raw, err := wire.Marshal(env)
	if err != nil {
		h.t.Fatalf("delivered envelope does not re-marshal: %v", err)
	}
	own, err := wire.Unmarshal(raw)
	if err != nil {
		h.t.Fatalf("re-marshaled envelope does not decode: %v", err)
	}
	lent := *env
	lent.Body = reflect.ValueOf(env.Body).Elem().Interface().(wire.Body)
	if !reflect.DeepEqual(own, &lent) {
		h.t.Fatalf("re-marshal round trip diverged:\n got %#v\nwant %#v", own, &lent)
	}
	h.seen = append(h.seen, own)
}

// wantDelivered is what Dispatch must hand the handler for data: every
// decodable envelope of a well-formed batch, in order — never the
// contents of a batch nested inside it, and nothing at all from a batch
// ForEachInBatch rejects — or the single decodable envelope data is.
// Envelopes from self are dropped.
func wantDelivered(self wire.NodeID, data []byte) []*wire.Envelope {
	var out []*wire.Envelope
	add := func(frame []byte) {
		if e, err := wire.Unmarshal(frame); err == nil && e.From != self {
			out = append(out, e)
		}
	}
	if !wire.IsBatchFrame(data) {
		add(data)
		return out
	}
	var inner [][]byte
	if wire.ForEachInBatch(data, func(f []byte) error { inner = append(inner, f); return nil }) != nil {
		return nil
	}
	for _, f := range inner {
		if !wire.IsBatchFrame(f) { // a nested batch is never opened
			add(f)
		}
	}
	return out
}

func mustMarshal(f *testing.F, body wire.Body, gen *uuid.Generator) []byte {
	b, err := wire.Marshal(wire.NewEnvelope(gen.New(), "lan0/n", body, gen))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzDispatch fuzzes the receive path production runs: batch
// splitting, the Env's reused Decoder and the own-ID filter. It is
// seeded from the wire golden corpus plus batch frames: 32 queries, a
// batch nested in a batch, an oversized count and a truncated batch.
func FuzzDispatch(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "golden", "*.bin"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("wire golden corpus missing: %v", err)
	}
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	gen := uuid.NewGenerator(11)
	queries := make([][]byte, 32)
	for i := range queries {
		queries[i] = mustMarshal(f, wire.Query{
			QueryID: gen.New(), Kind: describe.KindURI, Payload: []byte{byte(i)},
			MaxResults: 8, TTL: 2, ReplyAddr: "lan0/c1",
		}, gen)
	}
	batch := wire.EncodeBatch(queries)
	f.Add(batch)
	inner := wire.EncodeBatch([][]byte{mustMarshal(f, wire.Ping{}, gen), mustMarshal(f, wire.Pong{}, gen)})
	f.Add(wire.EncodeBatch([][]byte{mustMarshal(f, wire.Renew{AdvertID: gen.New()}, gen), inner, mustMarshal(f, wire.Bye{}, gen)}))
	f.Add(append(append([]byte(nil), batch[:4]...), 0x81, 0x08)) // count 1025 > MaxBatchMessages
	f.Add(batch[:len(batch)-3])

	// The probe dispatched after every input: a decoder that kept state
	// from the input would decode it wrongly.
	probe := wire.NewEnvelope(gen.New(), "lan0/probe", wire.QueryResult{
		QueryID: gen.New(), Complete: true,
		Adverts: []wire.Advertisement{{ID: gen.New(), Provider: gen.New(), ProviderAddr: "lan0/svc",
			Kind: describe.KindURI, Payload: []byte{1, 2}, LeaseMillis: 1000, Version: 1}},
	}, gen)
	probeRaw, err := wire.Marshal(probe)
	if err != nil {
		f.Fatal(err)
	}
	self := gen.New()

	f.Fuzz(func(t *testing.T, data []byte) {
		h := &ownedCopier{t: t}
		env := &Env{ID: self}
		want := wantDelivered(self, data)
		Dispatch(h, env, "lan0/x", data)
		if len(h.seen) != len(want) {
			t.Fatalf("delivered %d envelopes, want %d", len(h.seen), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(h.seen[i], want[i]) {
				t.Fatalf("envelope %d:\n got %#v\nwant %#v", i, h.seen[i], want[i])
			}
		}
		Dispatch(h, env, "lan0/x", probeRaw)
		if len(h.seen) != len(want)+1 || !reflect.DeepEqual(h.seen[len(want)], probe) {
			t.Fatalf("probe after the input: delivered %#v, want %#v", h.seen[len(want):], probe)
		}
	})
}
