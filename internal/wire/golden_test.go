package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"semdisco/internal/describe"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
)

// update rewrites the committed corpus from the envelopes the test
// builds: go test ./internal/wire -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden from the expected envelopes")

const (
	goldenDir   = "testdata/golden"
	goldenBatch = "batch.bin"
)

type goldenCase struct {
	file string
	env  *Envelope
}

// goldenCases is the fixed-ID corpus: every body of allBodies and
// queryCorpusBodies plus goldenExtras, each in its own envelope. It
// draws from a generator of its own, so the expected values do not
// depend on which other tests ran first.
func goldenCases() []goldenCase {
	g := uuid.NewGenerator(20261015)
	bodies := append(allBodies(g), queryCorpusBodies(g)...)
	bodies = append(bodies, goldenExtras(g)...)
	cases := make([]goldenCase, len(bodies))
	for i, b := range bodies {
		env := NewEnvelope(g.New(), "lan0/n1", b, g)
		cases[i] = goldenCase{file: fmt.Sprintf("%02d-%s.bin", i, env.Type), env: env}
	}
	return cases
}

// goldenExtras covers what the round-trip fixtures leave out: an
// advert of every description kind with a real payload, and absent
// lists and payloads in every list-bearing body shape.
func goldenExtras(g *uuid.Generator) []Body {
	const ns = "http://semdisco.example/onto#"
	sem := &describe.SemanticDescription{Profile: &profile.Profile{
		ServiceIRI: "urn:svc:radar1", Name: "radar", Category: ontology.Class(ns + "RadarFeed"),
		Outputs: []ontology.Class{ns + "Track"}, QoS: map[string]float64{"resolutionM": 5, "freshnessS": 1},
		Grounding: "udp://lan0/radar1",
	}}
	kv := &describe.KVDescription{
		ServiceURI: "urn:svc:wx1", Name: "weather", TypeURI: "urn:svc:weather",
		Attrs: map[string]string{"region": "coastal", "tier": "gold"}, Addr: "udp://lan0/wx1",
	}
	uri := &describe.URIDescription{TypeURI: "urn:svc:map", ServiceURI: "urn:svc:map1", Name: "map", Addr: "udp://lan0/map1"}
	advert := func(d describe.Description) Advertisement {
		return Advertisement{
			ID: g.New(), Provider: g.New(), ProviderAddr: "lan0/svc",
			Kind: d.Kind(), Payload: d.Encode(), LeaseMillis: 120_000, Version: 3,
		}
	}
	return []Body{
		QueryResult{QueryID: g.New(), Adverts: []Advertisement{advert(sem), advert(kv), advert(uri)}, Complete: true},
		Publish{Advert: Advertisement{ID: g.New(), Kind: describe.KindURI}},
		ProbeMatch{},
		Summary{},
		Summary{Entries: []SummaryEntry{{Kind: describe.KindKV}}},
		SummaryDelta{Version: 2, Base: 1, Entries: []SummaryDeltaEntry{{Kind: describe.KindURI}}},
		Query{QueryID: g.New(), Kind: describe.KindURI},
		ArtifactPut{IRI: "urn:empty"},
	}
}

// goldenBatchFrames picks the envelopes the batch file coalesces: the
// small high-rate types a batcher actually packs together.
func goldenBatchFrames(t *testing.T, cases []goldenCase) ([]*Envelope, [][]byte) {
	t.Helper()
	var envs []*Envelope
	var frames [][]byte
	for _, c := range cases {
		switch c.env.Type {
		case TRenew, TRenewAck, TPublishAck, TBeacon, TSummaryAck:
			raw, err := Marshal(c.env)
			if err != nil {
				t.Fatalf("%s: %v", c.file, err)
			}
			envs = append(envs, c.env)
			frames = append(frames, raw)
		}
	}
	return envs, frames
}

// readGolden loads every committed corpus file, keyed by name. The
// runtime fuzz target seeds from the same directory.
func readGolden(t testing.TB) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

func writeGolden(t *testing.T, cases []goldenCase) {
	t.Helper()
	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		raw, err := Marshal(c.env)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, c.file), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, frames := goldenBatchFrames(t, cases)
	if err := os.WriteFile(filepath.Join(goldenDir, goldenBatch), EncodeBatch(frames), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenWire pins the wire format to committed bytes. Each file must
// decode — through one reused Decoder, twice over, and through
// Unmarshal — to exactly the envelope the test builds, and that
// envelope must marshal back to exactly the file. A change to either
// the encoder or the decoder shows up here as a diff under testdata/,
// not as a round trip that stays green because both sides moved.
func TestGoldenWire(t *testing.T) {
	cases := goldenCases()
	if *update {
		writeGolden(t, cases)
	}
	files := readGolden(t)
	if len(files) != len(cases)+1 {
		t.Fatalf("%s holds %d files, the corpus has %d (regenerate with -update)", goldenDir, len(files), len(cases)+1)
	}

	seen := map[MsgType]bool{}
	for _, c := range cases {
		seen[c.env.Type] = true
		raw, ok := files[c.file]
		if !ok {
			t.Fatalf("%s missing (regenerate with -update)", c.file)
		}
		enc, err := Marshal(c.env)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.file, err)
		}
		if !bytes.Equal(enc, raw) {
			t.Fatalf("%s: encoding changed:\n got %x\nwant %x", c.file, enc, raw)
		}
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", c.file, err)
		}
		if !reflect.DeepEqual(got, c.env) {
			t.Fatalf("%s: Unmarshal mismatch:\n got %#v\nwant %#v", c.file, got, c.env)
		}
	}
	for mt := TProbe; mt <= TDirectoryAck; mt++ {
		if !seen[mt] {
			t.Errorf("corpus has no %v message", mt)
		}
	}

	// One Decoder for the whole corpus, two passes: the second decodes
	// into fully warmed reused storage, which must not leak across types.
	d := NewDecoder()
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			got, err := d.Decode(files[c.file])
			if err != nil {
				t.Fatalf("%s: decode (pass %d): %v", c.file, pass, err)
			}
			gv := *got
			gv.Body = derefDecoded(t, got.Body)
			if !reflect.DeepEqual(&gv, c.env) {
				t.Fatalf("%s: Decoder mismatch (pass %d):\n got %#v\nwant %#v", c.file, pass, gv, c.env)
			}
			re, err := Marshal(got)
			if err != nil || !bytes.Equal(re, files[c.file]) {
				t.Fatalf("%s: decoded envelope re-marshals differently (pass %d): %v", c.file, pass, err)
			}
		}
	}

	envs, frames := goldenBatchFrames(t, cases)
	batch := files[goldenBatch]
	if !bytes.Equal(EncodeBatch(frames), batch) {
		t.Fatalf("%s: batch encoding changed", goldenBatch)
	}
	i := 0
	err := ForEachInBatch(batch, func(msg []byte) error {
		got, err := d.Decode(msg)
		if err != nil {
			return err
		}
		gv := *got
		gv.Body = derefDecoded(t, got.Body)
		if !reflect.DeepEqual(&gv, envs[i]) {
			return fmt.Errorf("inner frame %d: got %#v, want %#v", i, gv, envs[i])
		}
		i++
		return nil
	})
	if err != nil || i != len(envs) {
		t.Fatalf("%s: %v (%d of %d inner frames)", goldenBatch, err, i, len(envs))
	}
}

// TestGoldenEmptyListsEncodeAsAbsent: an empty list and a nil one are
// the same bytes on the wire, and both decode as nil — which is why the
// corpus's expected values spell every absent list as nil.
func TestGoldenEmptyListsEncodeAsAbsent(t *testing.T) {
	id := uuid.NewGenerator(3).New()
	for _, pair := range [][2]Body{
		{ProbeMatch{}, ProbeMatch{Peers: []PeerInfo{}}},
		{Summary{}, Summary{Entries: []SummaryEntry{}}},
		{Summary{Entries: []SummaryEntry{{}}}, Summary{Entries: []SummaryEntry{{Tokens: []string{}}}}},
		{QueryResult{QueryID: id}, QueryResult{QueryID: id, Adverts: []Advertisement{}}},
		{DirectoryDelta{}, DirectoryDelta{Entries: []DirectoryEntry{}}},
		{ArtifactPut{}, ArtifactPut{Data: []byte{}}},
	} {
		a, err := Marshal(&Envelope{Type: pair[0].msgType(), Body: pair[0]})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Marshal(&Envelope{Type: pair[1].msgType(), Body: pair[1]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%T: nil and empty lists encode differently", pair[0])
		}
	}
}
