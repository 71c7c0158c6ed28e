package profile

import (
	"errors"
	"fmt"
	"math"

	"semdisco/internal/codec"
)

// Payload versions. Version 1 writes every concept IRI whole; version 2
// front-codes them (iriWriter). Encode writes version 2, and every
// decoder reads both.
const (
	versionWhole = 1
	versionFront = 2
)

// ErrBadPayload is wrapped by every decoder error that is not a
// truncation or a version mismatch: a non-finite number, a shared
// prefix longer than the IRI before it, or IRIs that rebuild to more
// than maxExpansion times the payload's length.
var ErrBadPayload = errors.New("profile: bad payload")

// maxExpansion bounds the concept IRI bytes a payload may rebuild to,
// as a multiple of its own length. Front coding alone lets rebuilt
// sizes grow quadratically in the payload — each IRI can repeat all of
// the one before — so a decoder checks the bound before it copies an
// IRI, and the encoder writes an IRI whole whenever sharing a prefix
// would break it. Whole IRIs never can: one costs at least its own
// length in payload bytes.
const maxExpansion = 8

// iriWriter front-codes the concept IRIs of one payload in a fixed
// order (category, inputs, outputs, ontology IRI for a profile;
// category, required outputs, provided inputs for a template). The
// first IRI is written whole, as a length-prefixed string; each later
// one as the uvarint length of the prefix it shares with the IRI
// before it, then the rest as a length-prefixed string.
type iriWriter struct {
	prev    string
	n       int // IRIs written
	rebuilt int // their total length
}

func (iw *iriWriter) write(w *codec.Buffer, iri string) {
	if iw.n > 0 {
		shared := commonPrefix(iw.prev, iri)
		rest := len(iri) - shared
		cost := codec.UvarintLen(uint64(shared)) + codec.UvarintLen(uint64(rest)) + rest
		if iw.rebuilt+len(iri) > maxExpansion*(w.Len()+cost) {
			shared = 0
		}
		w.Uvarint(uint64(shared))
		iri = iri[shared:]
		w.String(iri)
		iri = iw.prev[:shared] + iri
	} else {
		w.String(iri)
	}
	iw.prev = iri
	iw.n++
	iw.rebuilt += len(iri)
}

func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// iriReader reads the concept IRIs an iriWriter wrote, or a version 1
// payload's whole IRIs, in the same order. It rebuilds each front-coded
// IRI in one buffer it reuses: inline while the IRI fits, so a reader
// declared on the decoder's stack allocates nothing for it, and on the
// heap past that. It stores no pointer into itself, which would move it
// to the heap.
type iriReader struct {
	front  bool   // version 2: every IRI after the first has a shared length
	n      int    // IRIs read
	budget int    // rebuilt bytes still allowed
	last   []byte // the last IRI when the payload holds it whole
	nbuf   int    // its length when rebuilt inline
	big    []byte // the last IRI when rebuilt past inline
	inline [128]byte
}

func newIRIReader(version byte, payloadLen int) iriReader {
	return iriReader{front: version == versionFront, budget: maxExpansion * payloadLen}
}

// prev returns the IRI read last.
func (ir *iriReader) prev() []byte {
	switch {
	case ir.last != nil:
		return ir.last
	case ir.big != nil:
		return ir.big
	}
	return ir.inline[:ir.nbuf]
}

// next reads the next IRI. The bytes stay valid until the next call;
// whole reports that they are the payload's own bytes, not rebuilt.
func (ir *iriReader) next(r *codec.Reader) (iri []byte, whole bool, err error) {
	shared := uint64(0)
	if ir.front && ir.n > 0 {
		if shared, err = r.Uvarint(); err != nil {
			return nil, false, err
		}
		if prev := ir.prev(); shared > uint64(len(prev)) {
			return nil, false, fmt.Errorf("%w: IRI shares %d bytes with a %d-byte IRI", ErrBadPayload, shared, len(prev))
		}
	}
	rest, err := r.BytesVar()
	if err != nil {
		return nil, false, err
	}
	ir.n++
	if ir.budget -= int(shared) + len(rest); ir.budget < 0 {
		return nil, false, fmt.Errorf("%w: IRIs rebuild to more than %d times the payload", ErrBadPayload, maxExpansion)
	}
	if shared == 0 {
		// rest is never nil: a zero-length read is an empty view.
		ir.last = rest
		return rest, true, nil
	}
	prefix := ir.prev()[:shared]
	ir.last = nil
	if n := int(shared) + len(rest); n <= len(ir.inline) {
		copy(ir.inline[:shared], prefix)
		copy(ir.inline[shared:], rest)
		ir.nbuf, ir.big = n, nil
		return ir.inline[:n], false, nil
	}
	ir.big = append(append(ir.big[:0], prefix...), rest...)
	return ir.big, false, nil
}

// readVersion reads a payload's version byte, 1 or 2.
func readVersion(r *codec.Reader) (byte, error) {
	v, err := r.Byte()
	if err != nil {
		return 0, err
	}
	if v != versionWhole && v != versionFront {
		return 0, fmt.Errorf("profile: unsupported payload version %d", v)
	}
	return v, nil
}

// readFinite reads a float64 and rejects NaN and ±Inf: the one rule
// every decoder applies to QoS values and floors, coverage fields and
// Near coordinates, so every match score stays finite.
func readFinite(r *codec.Reader, what string) (float64, error) {
	f, err := r.Float64()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("%w: %s is not finite", ErrBadPayload, what)
	}
	return f, nil
}
