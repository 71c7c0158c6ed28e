package wire

import (
	"reflect"
	"testing"
	"testing/quick"

	"semdisco/internal/codec"
	"semdisco/internal/describe"
	"semdisco/internal/uuid"
)

var gen = uuid.NewGenerator(1)

func sampleAdvert(g *uuid.Generator) Advertisement {
	return Advertisement{
		ID:           g.New(),
		Provider:     g.New(),
		ProviderAddr: "lan0:svc1",
		Kind:         describe.KindSemantic,
		Payload:      []byte{1, 2, 3, 4},
		LeaseMillis:  30_000,
		Version:      2,
	}
}

// allBodies returns one or more bodies of every message type, drawing
// their IDs from g.
func allBodies(g *uuid.Generator) []Body {
	peers := []PeerInfo{{ID: g.New(), Addr: "lan0:r1"}, {ID: g.New(), Addr: "wan:r2"}}
	return []Body{
		Probe{},
		ProbeMatch{Peers: peers},
		Beacon{Peers: peers},
		Bye{},
		Ping{},
		Pong{Peers: peers},
		PeerExchange{Peers: peers},
		Summary{Entries: []SummaryEntry{
			{Kind: describe.KindURI, Tokens: []string{"urn:t1", "urn:t2"}},
			{Kind: describe.KindSemantic, Tokens: []string{"http://x#Radar"}},
		}},
		GatewayClaim{Yield: true},
		Publish{Advert: sampleAdvert(g)},
		PublishAck{AdvertID: g.New(), OK: true, LeaseMillis: 30_000},
		PublishAck{AdvertID: g.New(), OK: false, Error: "lease too long"},
		Renew{AdvertID: g.New()},
		RenewAck{AdvertID: g.New(), OK: true, LeaseMillis: 30_000},
		Remove{AdvertID: g.New()},
		AdvertForward{Advert: sampleAdvert(g), HopsLeft: 3},
		Query{
			QueryID: g.New(), Kind: describe.KindSemantic, Payload: []byte{9, 9},
			MaxResults: 10, BestOnly: true, TTL: 4, Strategy: StrategyRandomWalk,
			Walkers: 2, ReplyAddr: "lan0:c1",
		},
		QueryResult{QueryID: g.New(), Adverts: []Advertisement{sampleAdvert(g), sampleAdvert(g)}, Complete: true},
		QueryResult{QueryID: g.New(), Complete: false},
		PeerQuery{QueryID: g.New(), Kind: describe.KindURI, Payload: []byte{7}, ReplyAddr: "lan0:c1"},
		ArtifactGet{IRI: "http://semdisco.example/onto#"},
		ArtifactData{IRI: "http://semdisco.example/onto#", Found: true, Data: []byte("ttl")},
		ArtifactData{IRI: "urn:missing", Found: false},
		Subscribe{SubID: g.New(), Kind: describe.KindSemantic, Payload: []byte{5, 5}, NotifyAddr: "lan0/c1", LeaseMillis: 60_000},
		SubscribeAck{SubID: g.New(), OK: true, LeaseMillis: 60_000},
		SubscribeAck{SubID: g.New(), OK: false, Error: "unknown kind"},
		Unsubscribe{SubID: g.New()},
		ArtifactPut{IRI: "urn:custom", Data: []byte("doc")},
		ArtifactPutAck{IRI: "urn:custom", OK: true},
		SummaryDelta{Version: 9, Base: 8, Entries: []SummaryDeltaEntry{
			{Kind: describe.KindSemantic, Add: []string{"http://x#Radar"}, Remove: []string{"http://x#Sonar"}},
			{Kind: describe.KindURI, Add: []string{"urn:t3"}},
		}},
		SummaryDelta{Version: 1, Full: true, Entries: []SummaryDeltaEntry{
			{Kind: describe.KindURI, Add: []string{"urn:t1", "urn:t2"}},
		}},
		SummaryAck{Version: 9},
		SummaryAck{Version: 3, Resync: true},
		Query{
			QueryID: g.New(), Kind: describe.KindSemantic, Payload: []byte{4},
			MaxResults: 5, TTL: 3, ReplyAddr: "lan0:c1", Domain: "edge.west",
		},
		DirectoryDelta{Version: 12, Base: 11, Entries: []DirectoryEntry{
			{Domain: "edge.west", Origin: g.New(), Addr: "wan:gw1", Version: 4},
			{Domain: "edge.east", Origin: g.New(), Addr: "wan:gw2", Version: 2, Tombstone: true},
		}},
		DirectoryDelta{Version: 1, Full: true, Entries: []DirectoryEntry{
			{Domain: "core", Origin: g.New(), Addr: "wan:root", Version: 1},
		}},
		DirectoryDelta{Version: 3, Base: 2},
		DirectoryAck{Version: 12},
		DirectoryAck{Version: 7, Resync: true},
	}
}

func TestMarshalRoundTripAllTypes(t *testing.T) {
	for _, body := range allBodies(gen) {
		e := NewEnvelope(gen.New(), "lan0:n1", body, gen)
		b, err := Marshal(e)
		if err != nil {
			t.Fatalf("%T: marshal: %v", body, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", body, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", body, got, e)
		}
	}
}

// TestAppendReadAdvertRoundTrip exercises the standalone advert codec
// the registry's write-ahead log frames records with: the bytes must
// decode back to an identical advert, truncation at every prefix must
// error rather than panic, and a detached copy must not alias the
// source buffer (WAL replay reuses its read buffer across frames).
func TestAppendReadAdvertRoundTrip(t *testing.T) {
	var b codec.Buffer
	want := sampleAdvert(gen)
	AppendAdvert(&b, want)
	raw := b.Bytes()

	r := codec.NewReader(raw)
	got, err := ReadAdvert(r)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left after decode", r.Remaining())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
	}
	// The decoded payload must be detached from the encoding buffer.
	for i := range raw {
		raw[i] ^= 0xFF
	}
	if !reflect.DeepEqual(got.Payload, want.Payload) {
		t.Fatal("decoded advert aliases the encoding buffer")
	}
	for i := range raw {
		raw[i] ^= 0xFF
	}
	for i := 0; i < len(raw); i++ {
		if _, err := ReadAdvert(codec.NewReader(raw[:i])); err == nil {
			t.Fatalf("truncated advert of %d bytes accepted", i)
		}
	}
	// WAL recovery calls it once per publish record: the provider
	// address and the payload copy are its only allocations.
	if !raceEnabled {
		var rd codec.Reader
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(raw)
			if _, err := ReadAdvert(&rd); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("ReadAdvert: %.1f allocs/op, want <= 2", allocs)
		}
	}
}

func TestMarshalRejectsMismatchedType(t *testing.T) {
	e := NewEnvelope(gen.New(), "a", Ping{}, gen)
	e.Type = TPong
	if _, err := Marshal(e); err == nil {
		t.Fatal("mismatched envelope/body accepted")
	}
	if _, err := Marshal(&Envelope{Type: TPing}); err == nil {
		t.Fatal("nil body accepted")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	e := NewEnvelope(gen.New(), "a", Ping{}, gen)
	good, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	// bad magic
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// bad version
	bad = append([]byte{}, good...)
	bad[2] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// unknown type
	bad = append([]byte{}, good...)
	bad[3] = 0xEE
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	// truncation at every length
	for i := 0; i < len(good); i++ {
		if _, err := Unmarshal(good[:i]); err == nil {
			t.Fatalf("truncated message of %d bytes accepted", i)
		}
	}
	// trailing garbage
	if _, err := Unmarshal(append(append([]byte{}, good...), 1)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestUnmarshalFuzzNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalDetachesPayloads(t *testing.T) {
	e := NewEnvelope(gen.New(), "a", Publish{Advert: sampleAdvert(gen)}, gen)
	b, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xFF // scribble over the receive buffer
	}
	pl := got.Body.(Publish).Advert.Payload
	if !reflect.DeepEqual(pl, []byte{1, 2, 3, 4}) {
		t.Fatalf("payload aliases receive buffer: %v", pl)
	}
}

func TestCategoryOf(t *testing.T) {
	cases := map[MsgType]Category{
		TProbe: CatMaintenance, TBeacon: CatMaintenance, TSummary: CatMaintenance,
		TGatewayClaim: CatMaintenance,
		TPublish:      CatPublishing, TRenew: CatPublishing, TAdvertForward: CatPublishing,
		TQuery: CatQuerying, TQueryResult: CatQuerying, TPeerQuery: CatQuerying,
		TArtifactGet: CatQuerying, TSubscribe: CatQuerying, TUnsubscribe: CatQuerying,
		TArtifactPut: CatQuerying, TArtifactPutAck: CatQuerying,
	}
	for mt, want := range cases {
		if got := CategoryOf(mt); got != want {
			t.Errorf("CategoryOf(%v) = %v, want %v", mt, got, want)
		}
	}
}

func TestStringers(t *testing.T) {
	if TQuery.String() != "query" || MsgType(200).String() == "" {
		t.Fatal("MsgType.String broken")
	}
	if CatPublishing.String() != "publishing" || Category(9).String() == "" {
		t.Fatal("Category.String broken")
	}
	if StrategyExpandingRing.String() != "expanding-ring" || Strategy(9).String() == "" {
		t.Fatal("Strategy.String broken")
	}
}

func TestNewEnvelopeGeneratesUniqueIDs(t *testing.T) {
	g := uuid.NewGenerator(7)
	a := NewEnvelope(uuid.Nil, "x", Ping{}, g)
	b := NewEnvelope(uuid.Nil, "x", Ping{}, g)
	if a.MsgID == b.MsgID {
		t.Fatal("message IDs collide")
	}
	c := NewEnvelope(uuid.Nil, "x", Ping{}, nil) // falls back to crypto/rand
	if c.MsgID.IsNil() {
		t.Fatal("nil generator produced nil MsgID")
	}
}

// TestEncodedSize: header overhead stays modest — an empty ping
// encodes small.
func TestEncodedSize(t *testing.T) {
	ping, err := Marshal(NewEnvelope(gen.New(), "a", Ping{}, gen))
	if err != nil {
		t.Fatal(err)
	}
	if len(ping) > 48 {
		t.Fatalf("ping envelope is %d bytes; header too fat", len(ping))
	}
}
