// Package rdf implements the semantic-web substrate the paper assumes:
// RDF terms and triples, a triple set, a Turtle-subset parser, and
// N-Triples and Turtle serialization.
//
// The ICDEW'06 architecture describes services with "semantic service
// descriptions" grounded in shared ontologies and requires registries to
// host ontologies as artifacts when disconnected from the web (§4.6).
// This package reads and writes those documents; it does no reasoning.
// The ontology package reads the class axioms out of a graph and
// compiles their subsumption closure itself, and an RDFS forward-chainer
// in that package's tests checks the closure against RDFS entailment.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three RDF term kinds.
type TermKind uint8

const (
	// KindIRI is an absolute or prefixed IRI reference.
	KindIRI TermKind = iota
	// KindBlank is a blank (anonymous) node, scoped to one graph.
	KindBlank
	// KindLiteral is a literal with optional datatype or language tag.
	KindLiteral
)

// Term is one RDF term. The zero Term is invalid. Terms are small value
// types: comparable, usable as map keys, and cheap to copy.
type Term struct {
	Kind TermKind
	// Value is the IRI, the blank node label (without "_:"), or the
	// literal lexical form.
	Value string
	// Datatype is the literal datatype IRI ("" means xsd:string), and
	// Lang the language tag; both are empty for IRIs and blank nodes.
	Datatype string
	Lang     string
}

// Well-known vocabulary IRIs used by the ontology and profile layers
// built on top of this package.
const (
	RDFType        = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	RDFProperty    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property"
	RDFFirst       = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
	RDFRest        = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
	RDFNil         = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil"
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	RDFSSubPropOf  = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
	RDFSDomain     = "http://www.w3.org/2000/01/rdf-schema#domain"
	RDFSRange      = "http://www.w3.org/2000/01/rdf-schema#range"
	RDFSClass      = "http://www.w3.org/2000/01/rdf-schema#Class"
	RDFSLabel      = "http://www.w3.org/2000/01/rdf-schema#label"
	RDFSComment    = "http://www.w3.org/2000/01/rdf-schema#comment"
	OWLClass       = "http://www.w3.org/2002/07/owl#Class"
	OWLEquivClass  = "http://www.w3.org/2002/07/owl#equivalentClass"
	OWLThing       = "http://www.w3.org/2002/07/owl#Thing"
	XSDString      = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger     = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal     = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDBoolean     = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDouble      = "http://www.w3.org/2001/XMLSchema#double"
)

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: KindIRI, Value: iri} }

// Blank returns a blank-node term with the given label (no "_:" prefix).
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// Literal returns a plain string literal.
func Literal(lexical string) Term { return Term{Kind: KindLiteral, Value: lexical} }

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Datatype: datatype}
}

// LangLiteral returns a language-tagged string literal.
func LangLiteral(lexical, lang string) Term {
	return Term{Kind: KindLiteral, Value: lexical, Lang: lang}
}

// FloatLiteral returns an xsd:double literal.
func FloatLiteral(v float64) Term {
	return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// BoolLiteral returns an xsd:boolean literal.
func BoolLiteral(v bool) Term {
	return TypedLiteral(strconv.FormatBool(v), XSDBoolean)
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == KindIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == KindBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindIRI:
		return "<" + t.Value + ">"
	case KindBlank:
		return "_:" + t.Value
	case KindLiteral:
		s := quoteLiteral(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	default:
		return fmt.Sprintf("!invalid-term(%d)", t.Kind)
	}
}

func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Triple is one RDF statement. Subject must be an IRI or blank node,
// Predicate an IRI, Object any term; Graph.Add enforces this.
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Valid reports whether the triple satisfies RDF's positional constraints.
func (t Triple) Valid() bool {
	return (t.S.IsIRI() || t.S.IsBlank()) && t.P.IsIRI() &&
		(t.O.IsIRI() || t.O.IsBlank() || t.O.IsLiteral())
}
