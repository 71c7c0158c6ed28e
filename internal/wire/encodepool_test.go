package wire

import (
	"bytes"
	"testing"

	"semdisco/internal/describe"
)

func poolEnvelope() *Envelope {
	return NewEnvelope(gen.New(), "lan0/c", Query{
		QueryID: gen.New(), Kind: describe.KindSemantic,
		Payload: bytes.Repeat([]byte{7}, 120), TTL: 4, ReplyAddr: "lan0/c",
	}, gen)
}

// Marshal hands out caller-owned slices: corrupting one result must
// never reach another, even though both were encoded through the same
// pooled buffer.
func TestMarshalResultsIndependent(t *testing.T) {
	e := poolEnvelope()
	b1, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same envelope marshaled differently")
	}
	for i := range b1 {
		b1[i] = 0xFF
	}
	b3, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, b3) {
		t.Fatal("mutating one Marshal result corrupted a later one")
	}
}

// A failed Marshal must return its buffer to the pool reset, not
// poisoned with the partial encoding.
func TestMarshalErrorDoesNotPoisonPool(t *testing.T) {
	if _, err := Marshal(&Envelope{Type: TPing}); err == nil {
		t.Fatal("nil body accepted")
	}
	e := poolEnvelope()
	b, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("marshal after error path: %v", err)
	}
	if got.MsgID != e.MsgID {
		t.Fatal("round trip after error path lost the envelope")
	}
}

// The pool leaves exactly one allocation per Marshal — the caller-owned
// result slice. The bound is tolerant of an occasional GC emptying the
// pool mid-run.
func TestMarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	e := poolEnvelope()
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(e); err != nil {
			t.Fatal(err)
		}
	}); avg > 1.5 {
		t.Errorf("Marshal allocates %.1f objects/op, want ~1", avg)
	}
}

func BenchmarkMarshalQueryPooled(b *testing.B) {
	e := poolEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(e); err != nil {
			b.Fatal(err)
		}
	}
}
