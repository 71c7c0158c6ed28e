package profile_test

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/workload"
)

// The version 1 corpus (testdata/v1) holds payloads Profile.Encode and
// Template.Encode wrote while they wrote payload version 1 — the
// semantic adverts and queries of internal/wire's golden frames, some of
// the benchmark's population and templates, and hand-built ones — each
// with the value Decode or DecodeTemplate then returned, as JSON. It is
// never regenerated: deployed logs, snapshots and peers hold such
// payloads.
type corpusEntry[T any] struct {
	Name    string `json:"name"`
	Payload string `json:"payload"`
	Decoded *T     `json:"decoded"`
}

func loadCorpus[T any](t *testing.T, file string) []corpusEntry[T] {
	t.Helper()
	b, err := os.ReadFile("testdata/v1/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var entries []corpusEntry[T]
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("%s is empty", file)
	}
	return entries
}

func payloadOf(t *testing.T, hexed string) []byte {
	t.Helper()
	b, err := hex.DecodeString(hexed)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatalf("corpus payload has version %d", b[0])
	}
	return b
}

// TestVersion1ProfilesDecode: every version 1 profile decodes through
// Decode to the value recorded with it, and through DecodeRecord to
// that value's compiled record, against the benchmark's ontology (its
// own concepts are declared there, the golden frames' are not). Its
// version 2 re-encoding decodes to the same value and record.
func TestVersion1ProfilesDecode(t *testing.T) {
	onto, _ := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	declared := 0
	for _, e := range loadCorpus[profile.Profile](t, "profiles.json") {
		v1 := payloadOf(t, e.Payload)
		var want profile.Record
		profile.CompileRecord(e.Decoded, onto, &want)
		if want.CategoryID() != ontology.NoClass {
			declared++
		}
		for _, b := range [][]byte{v1, e.Decoded.Encode()} {
			got, err := profile.Decode(b)
			if err != nil || !reflect.DeepEqual(got, e.Decoded) {
				t.Fatalf("%s, version %d: Decode = %+v, %v; want %+v", e.Name, b[0], got, err, e.Decoded)
			}
			var rec profile.Record
			if err := profile.DecodeRecord(b, onto, &rec); err != nil {
				t.Fatalf("%s, version %d: DecodeRecord: %v", e.Name, b[0], err)
			}
			if rec.Source != string(b) {
				t.Fatalf("%s, version %d: the record does not keep its payload", e.Name, b[0])
			}
			rec.Source = ""
			if !reflect.DeepEqual(rec, want) {
				t.Fatalf("%s, version %d: DecodeRecord = %+v, want %+v", e.Name, b[0], rec, want)
			}
		}
	}
	if declared == 0 {
		t.Fatal("no corpus profile has a declared category")
	}
}

// TestVersion1TemplatesDecode is TestVersion1ProfilesDecode for the
// corpus's templates.
func TestVersion1TemplatesDecode(t *testing.T) {
	for _, e := range loadCorpus[profile.Template](t, "templates.json") {
		v1 := payloadOf(t, e.Payload)
		for _, b := range [][]byte{v1, e.Decoded.Encode()} {
			got, err := profile.DecodeTemplate(b)
			if err != nil || !reflect.DeepEqual(got, e.Decoded) {
				t.Fatalf("%s, version %d: DecodeTemplate = %+v, %v; want %+v", e.Name, b[0], got, err, e.Decoded)
			}
		}
	}
}
