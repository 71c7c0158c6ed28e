// Package uuid implements RFC 4122 version-4 (random) and deterministic
// sequence-based UUIDs.
//
// The service discovery architecture relies on universally unique
// identifiers in three places (ICDEW'06 §4.10 / MILCOM'07): advertisement
// IDs used to renew leases, update and remove published descriptions;
// query IDs used to correlate responses from multiple registries and to
// avoid query loops in the registry network; and node IDs that identify
// participants independently of their transport address.
//
// Experiments need determinism, so in addition to crypto/rand-backed
// UUIDs, the package provides a seeded Generator that yields a
// reproducible UUID stream.
package uuid

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// UUID is a 128-bit RFC 4122 universally unique identifier.
type UUID [16]byte

// Nil is the zero UUID. It is never returned by New or a Generator and
// marks "no ID" in protocol messages.
var Nil UUID

// New returns a version-4 UUID from crypto/rand. It panics only if the
// platform random source is broken, which is unrecoverable anyway.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		panic("uuid: crypto/rand failed: " + err.Error())
	}
	u.setVersion4()
	return u
}

func (u *UUID) setVersion4() {
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
}

// IsNil reports whether u is the zero UUID.
func (u UUID) IsNil() bool { return u == Nil }

// String renders the canonical 8-4-4-4-12 form.
func (u UUID) String() string {
	var b [36]byte
	hex.Encode(b[0:8], u[0:4])
	b[8] = '-'
	hex.Encode(b[9:13], u[4:6])
	b[13] = '-'
	hex.Encode(b[14:18], u[6:8])
	b[18] = '-'
	hex.Encode(b[19:23], u[8:10])
	b[23] = '-'
	hex.Encode(b[24:36], u[10:16])
	return string(b[:])
}

// Short returns the first 8 hex digits, for logs and progress output.
func (u UUID) Short() string {
	var b [8]byte
	hex.Encode(b[:], u[0:4])
	return string(b[:])
}

// ErrBadUUID is returned by Parse for any malformed input.
var ErrBadUUID = errors.New("uuid: malformed UUID")

// Parse accepts the canonical 36-character form produced by String.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return Nil, fmt.Errorf("%w: %q", ErrBadUUID, s)
	}
	hexParts := []struct {
		dst []byte
		src string
	}{
		{u[0:4], s[0:8]},
		{u[4:6], s[9:13]},
		{u[6:8], s[14:18]},
		{u[8:10], s[19:23]},
		{u[10:16], s[24:36]},
	}
	for _, p := range hexParts {
		if _, err := hex.Decode(p.dst, []byte(p.src)); err != nil {
			return Nil, fmt.Errorf("%w: %q", ErrBadUUID, s)
		}
	}
	return u, nil
}

// Generator yields a deterministic UUID stream from a seed. It implements
// the SplitMix64 generator, which has a full 2^64 period and passes
// BigCrush; more than adequate for reproducible experiment identities.
// Generator is not safe for concurrent use; experiments run it from the
// single-threaded event loop.
type Generator struct {
	state uint64
}

// NewGenerator returns a deterministic generator for the given seed.
func NewGenerator(seed uint64) *Generator {
	return &Generator{state: seed}
}

func (g *Generator) next64() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns the next UUID in the deterministic stream. The result is a
// valid version-4 UUID (version and variant bits are forced), so wire
// formats and logs cannot distinguish simulated from live identifiers.
func (g *Generator) New() UUID {
	var u UUID
	binary.BigEndian.PutUint64(u[0:8], g.next64())
	binary.BigEndian.PutUint64(u[8:16], g.next64())
	u.setVersion4()
	if u == Nil { // astronomically unlikely, but keep the Nil invariant
		return g.New()
	}
	return u
}

// Compare orders UUIDs lexicographically; used for deterministic
// tie-breaks such as LAN gateway election (lowest node ID wins).
func Compare(a, b UUID) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
