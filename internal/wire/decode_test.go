package wire

import (
	"fmt"
	"reflect"
	"testing"

	"semdisco/internal/describe"
)

// derefDecoded converts a Decoder's pointer body back to its value form
// so results compare against envelopes built from value bodies.
func derefDecoded(t *testing.T, b Body) Body {
	t.Helper()
	v := reflect.ValueOf(b)
	if v.Kind() != reflect.Pointer {
		t.Fatalf("decoder returned non-pointer body %T", b)
	}
	return v.Elem().Interface().(Body)
}

// TestDecoderRejectsBadInput mirrors the Unmarshal rejection cases plus
// the batch-frame guard.
func TestDecoderRejectsBadInput(t *testing.T) {
	d := NewDecoder()
	e := NewEnvelope(gen.New(), "lan0:n1", Renew{AdvertID: gen.New()}, gen)
	raw, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, err := d.Decode(raw[:i]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", i)
		}
	}
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, err := d.Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	batch := EncodeBatch([][]byte{raw})
	if _, err := d.Decode(batch); err == nil {
		t.Fatal("batch frame accepted by Decode")
	}
	// The decoder must stay usable after errors.
	if _, err := d.Decode(raw); err != nil {
		t.Fatalf("decode after errors: %v", err)
	}
}

// TestDecodeAllocs is the decode-path allocation budget: steady-state
// decode of the hot receive types (query, advert-bearing results,
// summaries, renews and deltas) must not allocate at all. This is the
// receive-side mirror of TestMarshalAllocs.
func TestDecodeAllocs(t *testing.T) {
	frames := map[string][]byte{}
	for name, body := range map[string]Body{
		"query": Query{
			QueryID: gen.New(), Kind: describe.KindSemantic, Payload: []byte{9, 9, 9, 9},
			MaxResults: 10, TTL: 4, ReplyAddr: "lan0:c1",
		},
		"advert":  QueryResult{QueryID: gen.New(), Adverts: []Advertisement{sampleAdvert(gen), sampleAdvert(gen)}, Complete: true},
		"publish": Publish{Advert: sampleAdvert(gen)},
		"summary": Summary{Entries: []SummaryEntry{
			{Kind: describe.KindURI, Tokens: []string{"urn:t1", "urn:t2"}},
			{Kind: describe.KindSemantic, Tokens: []string{"http://x#Radar"}},
		}},
		"renew": Renew{AdvertID: gen.New()},
		"delta": SummaryDelta{Version: 4, Base: 3, Entries: []SummaryDeltaEntry{
			{Kind: describe.KindSemantic, Add: []string{"http://x#Radar"}, Remove: []string{"http://x#Sonar"}},
		}},
	} {
		raw, err := Marshal(NewEnvelope(gen.New(), "lan0:n1", body, gen))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames[name] = raw
	}
	d := NewDecoder()
	for name, raw := range frames {
		// Warm the intern table and slice pools.
		if _, err := d.Decode(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := d.Decode(raw); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s decode: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestDecoderInternBound proves a flood of unique strings cannot grow
// the intern table without bound.
func TestDecoderInternBound(t *testing.T) {
	d := NewDecoder()
	for i := 0; i < 3*maxInternStrings; i++ {
		e := NewEnvelope(gen.New(), fmt.Sprintf("lan0:n%d", i), ArtifactGet{IRI: fmt.Sprintf("urn:x%d", i)}, gen)
		raw, err := Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.strs) > maxInternStrings {
		t.Fatalf("intern table grew to %d entries (cap %d)", len(d.strs), maxInternStrings)
	}
}

// TestBatchRoundTrip checks frame coalescing: every inner envelope comes
// back in order and decodes, and classification helpers agree.
func TestBatchRoundTrip(t *testing.T) {
	var frames [][]byte
	var want []MsgType
	for _, body := range allBodies(gen) {
		raw, err := Marshal(NewEnvelope(gen.New(), "lan0:n1", body, gen))
		if err != nil {
			t.Fatal(err)
		}
		ft, ok := FrameType(raw)
		if !ok {
			t.Fatalf("%T: FrameType rejected a marshaled frame", body)
		}
		frames = append(frames, raw)
		want = append(want, ft)
	}
	batch := EncodeBatch(frames)
	if !IsBatchFrame(batch) {
		t.Fatal("EncodeBatch output not recognized as batch frame")
	}
	if _, ok := FrameType(batch); ok {
		t.Fatal("FrameType accepted a batch frame")
	}
	d := NewDecoder()
	i := 0
	err := ForEachInBatch(batch, func(msg []byte) error {
		e, err := d.Decode(msg)
		if err != nil {
			return err
		}
		if e.Type != want[i] {
			return fmt.Errorf("frame %d: type %v, want %v", i, e.Type, want[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(frames) {
		t.Fatalf("visited %d frames, want %d", i, len(frames))
	}
}

// TestBatchRejectsMalformed: truncations, trailing garbage and absurd
// counts must error, never panic, and never hand fn a single inner frame
// of the rejected batch.
func TestBatchRejectsMalformed(t *testing.T) {
	raw, err := Marshal(NewEnvelope(gen.New(), "lan0:n1", Renew{AdvertID: gen.New()}, gen))
	if err != nil {
		t.Fatal(err)
	}
	batch := EncodeBatch([][]byte{raw, raw})
	calls := 0
	count := func([]byte) error { calls++; return nil }
	reject := func(what string, b []byte) {
		t.Helper()
		calls = 0
		if err := ForEachInBatch(b, count); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if calls != 0 {
			t.Fatalf("%s: rejected batch delivered %d inner frames", what, calls)
		}
	}
	for i := batchHeaderLen; i < len(batch); i++ {
		reject(fmt.Sprintf("truncated batch of %d bytes", i), batch[:i])
	}
	reject("trailing garbage", append(append([]byte{}, batch...), 0xEE))
	reject("single-envelope frame", raw)
	huge := []byte{magic0, magic1, wireVersion, batchFrameType, 0xFF, 0xFF, 0x7F}
	reject("absurd batch count", huge)
	calls = 0
	if err := ForEachInBatch(batch, count); err != nil || calls != 2 {
		t.Fatalf("well-formed batch: %v after %d frames, want 2", err, calls)
	}
}

// TestBatchOverhead pins the frame-size arithmetic batchers rely on for
// flush-on-size decisions.
func TestBatchOverhead(t *testing.T) {
	raw, err := Marshal(NewEnvelope(gen.New(), "lan0:n1", Renew{AdvertID: gen.New()}, gen))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 16, 200} {
		frames := make([][]byte, n)
		lens := make([]int, n)
		total := 0
		for i := range frames {
			frames[i] = raw
			lens[i] = len(raw)
			total += len(raw)
		}
		batch := EncodeBatch(frames)
		if got, want := len(batch), total+BatchOverhead(n, lens); got != want {
			t.Fatalf("n=%d: len=%d, BatchOverhead predicts %d", n, got, want)
		}
	}
}
