package rdf

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseTurtle parses a practical subset of Turtle sufficient for the
// ontologies and service profiles this system ships and generates:
//
//   - @prefix / @base directives (and SPARQL-style PREFIX/BASE)
//   - prefixed names (ex:Radar) and IRIs (<http://…>)
//   - the "a" keyword for rdf:type
//   - predicate lists (";") and object lists (",")
//   - string literals with \-escapes, @lang tags and ^^datatypes
//   - integer, decimal and boolean shorthand literals
//   - blank node labels (_:b1), anonymous blank nodes "[ … ]"
//   - collections "( … )" as rdf:first/rdf:rest lists
//   - triple-quoted long strings """…"""
//   - comments (#…)
//
// Remaining unsupported Turtle features yield a descriptive error with
// a line number rather than silent misparsing.
//
// N-Triples is a subset of this grammar, so ParseTurtle parses
// N-Triples documents too.
func ParseTurtle(src string) (*Graph, error) {
	g := NewGraph()
	p := &turtleParser{src: src, line: 1, prefixes: map[string]string{}}
	if err := p.run(g); err != nil {
		return nil, err
	}
	return g, nil
}

type turtleParser struct {
	src      string
	pos      int
	line     int
	base     string
	prefixes map[string]string
	// anonSeq numbers generated anonymous blank nodes (_:anon0, …).
	anonSeq int
}

// freshBlank mints a blank node for anonymous constructs. Like other
// RDF parsers it uses a reserved-looking "genid-" label space; colliding
// with explicit user labels of that form is documented non-support.
func (p *turtleParser) freshBlank() Term {
	p.anonSeq++
	return Blank(fmt.Sprintf("genid-%d", p.anonSeq-1))
}

func (p *turtleParser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *turtleParser) run(g *Graph) error {
	for {
		p.skipSpace()
		if p.eof() {
			return nil
		}
		if p.peekDirective() {
			if err := p.parseDirective(); err != nil {
				return err
			}
			continue
		}
		if err := p.parseStatement(g); err != nil {
			return err
		}
	}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.src) }

func (p *turtleParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *turtleParser) skipSpace() {
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for !p.eof() && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) peekDirective() bool {
	rest := p.src[p.pos:]
	return strings.HasPrefix(rest, "@prefix") || strings.HasPrefix(rest, "@base") ||
		hasPrefixFold(rest, "PREFIX") || hasPrefixFold(rest, "BASE")
}

func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

func (p *turtleParser) parseDirective() error {
	sparqlStyle := false
	switch {
	case strings.HasPrefix(p.src[p.pos:], "@prefix"):
		p.pos += len("@prefix")
	case strings.HasPrefix(p.src[p.pos:], "@base"):
		p.pos += len("@base")
		return p.parseBase(false)
	case hasPrefixFold(p.src[p.pos:], "PREFIX"):
		p.pos += len("PREFIX")
		sparqlStyle = true
	case hasPrefixFold(p.src[p.pos:], "BASE"):
		p.pos += len("BASE")
		return p.parseBase(true)
	}
	p.skipSpace()
	// prefix label up to ':'
	start := p.pos
	for !p.eof() && p.src[p.pos] != ':' {
		if c := p.src[p.pos]; c == ' ' || c == '\n' || c == '<' {
			return p.errf("malformed prefix label")
		}
		p.pos++
	}
	if p.eof() {
		return p.errf("unterminated @prefix directive")
	}
	label := p.src[start:p.pos]
	p.pos++ // ':'
	p.skipSpace()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.prefixes[label] = iri
	p.skipSpace()
	if !sparqlStyle {
		if p.peek() != '.' {
			return p.errf("@prefix directive must end with '.'")
		}
		p.pos++
	}
	return nil
}

func (p *turtleParser) parseBase(sparqlStyle bool) error {
	p.skipSpace()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.base = iri
	p.skipSpace()
	if !sparqlStyle {
		if p.peek() != '.' {
			return p.errf("@base directive must end with '.'")
		}
		p.pos++
	}
	return nil
}

func (p *turtleParser) parseStatement(g *Graph) error {
	subj, err := p.parseTerm(g, true)
	if err != nil {
		return err
	}
	for {
		p.skipSpace()
		pred, err := p.parsePredicate(g)
		if err != nil {
			return err
		}
		for {
			p.skipSpace()
			obj, err := p.parseTerm(g, false)
			if err != nil {
				return err
			}
			if _, err := g.Add(Triple{subj, pred, obj}); err != nil {
				return p.errf("%v", err)
			}
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		switch p.peek() {
		case ';':
			p.pos++
			p.skipSpace()
			// Turtle allows a dangling ';' before '.'
			if p.peek() == '.' {
				p.pos++
				return nil
			}
			continue
		case '.':
			p.pos++
			return nil
		default:
			return p.errf("expected ';' or '.' after object, got %q", string(p.peek()))
		}
	}
}

func (p *turtleParser) parsePredicate(g *Graph) (Term, error) {
	// the "a" keyword
	if p.peek() == 'a' {
		next := byte(' ')
		if p.pos+1 < len(p.src) {
			next = p.src[p.pos+1]
		}
		if next == ' ' || next == '\t' || next == '\n' || next == '<' {
			p.pos++
			return IRI(RDFType), nil
		}
	}
	t, err := p.parseTerm(g, true)
	if err != nil {
		return Term{}, err
	}
	if !t.IsIRI() {
		return Term{}, p.errf("predicate must be an IRI, got %v", t)
	}
	return t, nil
}

// parseTerm parses an IRI, prefixed name, blank node, or (when
// subjPos==false) a literal.
func (p *turtleParser) parseTerm(g *Graph, subjPos bool) (Term, error) {
	p.skipSpace()
	if p.eof() {
		return Term{}, p.errf("unexpected end of input")
	}
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return IRI(iri), nil
	case c == '_':
		if p.pos+1 >= len(p.src) || p.src[p.pos+1] != ':' {
			return Term{}, p.errf("malformed blank node")
		}
		p.pos += 2
		start := p.pos
		for !p.eof() && isNameChar(p.src[p.pos]) {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty blank node label")
		}
		return Blank(p.src[start:p.pos]), nil
	case c == '[':
		return p.parseAnonBlank(g)
	case c == '(':
		return p.parseCollection(g)
	case c == '"':
		if subjPos {
			return Term{}, p.errf("literal not allowed in subject/predicate position")
		}
		return p.parseLiteral(g)
	case !subjPos && (c == '+' || c == '-' || (c >= '0' && c <= '9')):
		return p.parseNumber()
	case !subjPos && (strings.HasPrefix(p.src[p.pos:], "true") || strings.HasPrefix(p.src[p.pos:], "false")):
		return p.parseBoolean()
	default:
		return p.parsePrefixedName()
	}
}

func (p *turtleParser) parseIRIRef() (string, error) {
	if p.peek() != '<' {
		return "", p.errf("expected '<'")
	}
	p.pos++
	start := p.pos
	for !p.eof() && p.src[p.pos] != '>' {
		if p.src[p.pos] == '\n' {
			return "", p.errf("newline inside IRI")
		}
		p.pos++
	}
	if p.eof() {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[start:p.pos]
	p.pos++
	if p.base != "" && !strings.Contains(iri, ":") {
		iri = p.base + iri
	}
	return iri, nil
}

func isNameChar(c byte) bool {
	return c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *turtleParser) parsePrefixedName() (Term, error) {
	start := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.eof() || p.src[p.pos] != ':' {
		return Term{}, p.errf("expected prefixed name near %q", snippet(p.src[start:]))
	}
	prefix := p.src[start:p.pos]
	p.pos++
	localStart := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	local := p.src[localStart:p.pos]
	// Local names ending in '.' are actually followed by the statement
	// terminator; give the '.' back.
	for strings.HasSuffix(local, ".") {
		local = local[:len(local)-1]
		p.pos--
	}
	ns, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	return IRI(ns + local), nil
}

func (p *turtleParser) parseLiteral(g *Graph) (Term, error) {
	if strings.HasPrefix(p.src[p.pos:], `"""`) {
		return p.parseLongLiteral(g)
	}
	p.pos++ // opening quote
	var b strings.Builder
	for {
		if p.eof() {
			return Term{}, p.errf("unterminated string literal")
		}
		c := p.src[p.pos]
		if c == '\n' {
			return Term{}, p.errf("newline in string literal")
		}
		if c == '"' {
			p.pos++
			break
		}
		if c == '\\' {
			p.pos++
			if p.eof() {
				return Term{}, p.errf("dangling escape")
			}
			switch e := p.src[p.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'u':
				if p.pos+4 >= len(p.src) {
					return Term{}, p.errf("truncated \\u escape")
				}
				var r rune
				if _, err := fmt.Sscanf(p.src[p.pos+1:p.pos+5], "%04x", &r); err != nil {
					return Term{}, p.errf("bad \\u escape")
				}
				b.WriteRune(r)
				p.pos += 4
			default:
				return Term{}, p.errf("unknown escape \\%c", e)
			}
			p.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		b.WriteRune(r)
		p.pos += size
	}
	lexical := b.String()
	// optional @lang or ^^datatype
	if p.peek() == '@' {
		p.pos++
		start := p.pos
		for !p.eof() && (isNameChar(p.src[p.pos])) {
			p.pos++
		}
		lang := p.src[start:p.pos]
		if lang == "" {
			return Term{}, p.errf("empty language tag")
		}
		return LangLiteral(lexical, lang), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.parseTerm(g, true)
		if err != nil {
			return Term{}, err
		}
		if !dt.IsIRI() {
			return Term{}, p.errf("datatype must be an IRI")
		}
		return TypedLiteral(lexical, dt.Value), nil
	}
	return Literal(lexical), nil
}

func (p *turtleParser) parseNumber() (Term, error) {
	start := p.pos
	if c := p.peek(); c == '+' || c == '-' {
		p.pos++
	}
	digits, dot, exp := 0, false, false
	for !p.eof() {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
			digits++
			p.pos++
		case c == '.' && !dot && !exp:
			// A '.' followed by a non-digit is the statement terminator.
			if p.pos+1 >= len(p.src) || p.src[p.pos+1] < '0' || p.src[p.pos+1] > '9' {
				goto done
			}
			dot = true
			p.pos++
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			p.pos++
			if !p.eof() && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	if digits == 0 {
		return Term{}, p.errf("malformed number")
	}
	lex := p.src[start:p.pos]
	switch {
	case exp:
		return TypedLiteral(lex, XSDDouble), nil
	case dot:
		return TypedLiteral(lex, XSDDecimal), nil
	default:
		return TypedLiteral(lex, XSDInteger), nil
	}
}

func (p *turtleParser) parseBoolean() (Term, error) {
	if strings.HasPrefix(p.src[p.pos:], "true") && boundaryAt(p.src, p.pos+4) {
		p.pos += 4
		return BoolLiteral(true), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "false") && boundaryAt(p.src, p.pos+5) {
		p.pos += 5
		return BoolLiteral(false), nil
	}
	return Term{}, p.errf("malformed boolean")
}

func boundaryAt(s string, i int) bool {
	if i >= len(s) {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s[i:])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}

func snippet(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 24 {
		s = s[:24] + "…"
	}
	return s
}

// parseAnonBlank parses "[]" or "[ pred obj ; … ]", emitting the inner
// triples with a fresh blank subject and returning that subject.
func (p *turtleParser) parseAnonBlank(g *Graph) (Term, error) {
	p.pos++ // '['
	node := p.freshBlank()
	p.skipSpace()
	if p.peek() == ']' {
		p.pos++
		return node, nil
	}
	for {
		pred, err := p.parsePredicate(g)
		if err != nil {
			return Term{}, err
		}
		for {
			p.skipSpace()
			obj, err := p.parseTerm(g, false)
			if err != nil {
				return Term{}, err
			}
			if _, err := g.Add(Triple{node, pred, obj}); err != nil {
				return Term{}, p.errf("%v", err)
			}
			p.skipSpace()
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		switch p.peek() {
		case ';':
			p.pos++
			p.skipSpace()
			if p.peek() == ']' { // dangling ';'
				p.pos++
				return node, nil
			}
			continue
		case ']':
			p.pos++
			return node, nil
		default:
			return Term{}, p.errf("expected ';' or ']' in blank node property list, got %q", string(p.peek()))
		}
	}
}

// parseCollection parses "( o1 o2 … )" into an rdf:first/rdf:rest list
// and returns its head (rdf:nil for the empty collection).
func (p *turtleParser) parseCollection(g *Graph) (Term, error) {
	p.pos++ // '('
	var items []Term
	for {
		p.skipSpace()
		if p.eof() {
			return Term{}, p.errf("unterminated collection")
		}
		if p.peek() == ')' {
			p.pos++
			break
		}
		item, err := p.parseTerm(g, false)
		if err != nil {
			return Term{}, err
		}
		items = append(items, item)
	}
	if len(items) == 0 {
		return IRI(RDFNil), nil
	}
	head := p.freshBlank()
	cur := head
	for i, item := range items {
		if _, err := g.Add(Triple{cur, IRI(RDFFirst), item}); err != nil {
			return Term{}, p.errf("%v", err)
		}
		if i == len(items)-1 {
			if _, err := g.Add(Triple{cur, IRI(RDFRest), IRI(RDFNil)}); err != nil {
				return Term{}, p.errf("%v", err)
			}
			break
		}
		next := p.freshBlank()
		if _, err := g.Add(Triple{cur, IRI(RDFRest), next}); err != nil {
			return Term{}, p.errf("%v", err)
		}
		cur = next
	}
	return head, nil
}

// parseLongLiteral parses a triple-quoted string, which may span lines
// and contain unescaped quotes.
func (p *turtleParser) parseLongLiteral(g *Graph) (Term, error) {
	p.pos += 3 // opening """
	var b strings.Builder
	for {
		if p.eof() {
			return Term{}, p.errf("unterminated triple-quoted string")
		}
		if strings.HasPrefix(p.src[p.pos:], `"""`) {
			p.pos += 3
			break
		}
		c := p.src[p.pos]
		if c == '\\' {
			p.pos++
			if p.eof() {
				return Term{}, p.errf("dangling escape")
			}
			switch e := p.src[p.pos]; e {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return Term{}, p.errf("unknown escape \\%c", e)
			}
			p.pos++
			continue
		}
		if c == '\n' {
			p.line++
		}
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		b.WriteRune(r)
		p.pos += size
	}
	lexical := b.String()
	// Long literals take the same @lang / ^^type suffixes.
	if p.peek() == '@' {
		p.pos++
		start := p.pos
		for !p.eof() && isNameChar(p.src[p.pos]) {
			p.pos++
		}
		lang := p.src[start:p.pos]
		if lang == "" {
			return Term{}, p.errf("empty language tag")
		}
		return LangLiteral(lexical, lang), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.parseTerm(g, true)
		if err != nil {
			return Term{}, err
		}
		if !dt.IsIRI() {
			return Term{}, p.errf("datatype must be an IRI")
		}
		return TypedLiteral(lexical, dt.Value), nil
	}
	return Literal(lexical), nil
}
