package rdf

import "testing"

// FuzzParseTurtle checks the parser never panics and that everything it
// accepts survives an encode/parse round trip.
func FuzzParseTurtle(f *testing.F) {
	seeds := []string{
		"",
		"<http://a> <http://b> <http://c> .",
		`@prefix ex: <http://e/> .` + "\n" + `ex:a ex:b "lit"@en, 42, 3.5, true ; a ex:C .`,
		`# comment only`,
		`@base <http://b/> . <s> <p> <o> .`,
		`PREFIX ex: <http://e/>` + "\n" + `ex:s ex:p "x\n\"y\"" .`,
		"_:b0 <http://p> _:b1 .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseTurtle(src)
		if err != nil {
			return
		}
		enc := EncodeNTriples(g)
		back, err := ParseTurtle(enc)
		if err != nil {
			t.Fatalf("canonical N-Triples failed to re-parse: %v\n%s", err, enc)
		}
		if EncodeNTriples(back) != enc {
			t.Fatalf("round trip diverged for:\n%s", enc)
		}
	})
}
