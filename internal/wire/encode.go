package wire

import (
	"fmt"
	"sync"

	"semdisco/internal/codec"
)

// Wire format: two magic bytes, a version byte, the envelope header,
// then the body. The magic bytes let nodes "quickly filter and silently
// discard messages they cannot understand anyway" before any parsing.
const (
	magic0      = 0x53 // 'S'
	magic1      = 0x44 // 'D'
	wireVersion = 1
)

// encodePool recycles envelope encode buffers. Federation fan-out
// marshals the same few message shapes at high rate; reusing the
// buffer's backing array leaves one exact-size result allocation per
// Marshal instead of the append-growth chain.
var encodePool = sync.Pool{New: func() any { return new(codec.Buffer) }}

// Marshal encodes the envelope for transmission. The returned slice is
// freshly allocated and owned by the caller.
func Marshal(e *Envelope) ([]byte, error) {
	w := encodePool.Get().(*codec.Buffer)
	defer func() {
		w.Reset()
		encodePool.Put(w)
	}()
	if err := marshalInto(w, e); err != nil {
		return nil, err
	}
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out, nil
}

// marshalInto encodes the envelope into the given (reset) buffer.
func marshalInto(w *codec.Buffer, e *Envelope) error {
	if e.Body == nil {
		return fmt.Errorf("wire: nil body")
	}
	if e.Body.msgType() != e.Type {
		return fmt.Errorf("wire: envelope type %v does not match body %T", e.Type, e.Body)
	}
	w.Byte(magic0)
	w.Byte(magic1)
	w.Byte(wireVersion)
	w.Byte(byte(e.Type))
	w.Bytes16(e.From)
	w.Bytes16(e.MsgID)
	w.String(e.FromAddr)
	return marshalBody(w, e.Body)
}

// Unmarshal decodes a received datagram into an envelope the caller
// owns. Messages with wrong magic, unknown version or unknown type yield
// an error the caller treats as "silently discard".
//
// It is the owning wrapper over Decoder: b is copied, the copy is
// decoded by a fresh Decoder that is then dropped, and the body comes
// back in its value form. Nothing in the result aliases b, and nothing
// else aliases the result.
func Unmarshal(b []byte) (*Envelope, error) {
	e, err := NewDecoder().Decode(append([]byte(nil), b...))
	if err != nil {
		return nil, err
	}
	out := *e
	out.Body = derefBody(e.Body)
	return &out, nil
}

// derefBody normalizes pointer bodies to their value form so the
// marshal switch only has to enumerate each type once. The zero-alloc
// Decoder emits pointer bodies (reused across envelopes); constructors,
// tests and Unmarshal's callers hold value bodies, and both must marshal.
func derefBody(body Body) Body {
	switch b := body.(type) {
	case *Probe:
		return *b
	case *ProbeMatch:
		return *b
	case *Beacon:
		return *b
	case *Bye:
		return *b
	case *Ping:
		return *b
	case *Pong:
		return *b
	case *PeerExchange:
		return *b
	case *Summary:
		return *b
	case *GatewayClaim:
		return *b
	case *Publish:
		return *b
	case *PublishAck:
		return *b
	case *Renew:
		return *b
	case *RenewAck:
		return *b
	case *Remove:
		return *b
	case *AdvertForward:
		return *b
	case *Query:
		return *b
	case *QueryResult:
		return *b
	case *PeerQuery:
		return *b
	case *ArtifactGet:
		return *b
	case *ArtifactData:
		return *b
	case *Subscribe:
		return *b
	case *SubscribeAck:
		return *b
	case *Unsubscribe:
		return *b
	case *ArtifactPut:
		return *b
	case *ArtifactPutAck:
		return *b
	case *SummaryDelta:
		return *b
	case *SummaryAck:
		return *b
	case *DirectoryDelta:
		return *b
	case *DirectoryAck:
		return *b
	default:
		return body
	}
}

func marshalBody(w *codec.Buffer, body Body) error {
	switch b := derefBody(body).(type) {
	case Probe, Bye:
		// empty bodies
	case Ping:
		w.Bool(b.FromRegistry)
	case ProbeMatch:
		putPeers(w, b.Peers)
	case Beacon:
		putPeers(w, b.Peers)
	case Pong:
		putPeers(w, b.Peers)
	case PeerExchange:
		putPeers(w, b.Peers)
	case Summary:
		w.Uvarint(uint64(len(b.Entries)))
		for _, en := range b.Entries {
			w.Byte(byte(en.Kind))
			w.StringSlice(en.Tokens)
		}
	case GatewayClaim:
		w.Bool(b.Yield)
	case Publish:
		putAdvert(w, b.Advert)
	case PublishAck:
		w.Bytes16(b.AdvertID)
		w.Bool(b.OK)
		w.String(b.Error)
		w.Uvarint(b.LeaseMillis)
	case Renew:
		w.Bytes16(b.AdvertID)
	case RenewAck:
		w.Bytes16(b.AdvertID)
		w.Bool(b.OK)
		w.Uvarint(b.LeaseMillis)
	case Remove:
		w.Bytes16(b.AdvertID)
	case AdvertForward:
		putAdvert(w, b.Advert)
		w.Byte(b.HopsLeft)
	case Query:
		w.Bytes16(b.QueryID)
		w.Byte(byte(b.Kind))
		w.BytesVar(b.Payload)
		w.Uvarint(uint64(b.MaxResults))
		w.Bool(b.BestOnly)
		w.Byte(b.TTL)
		w.Byte(byte(b.Strategy))
		w.Byte(b.Walkers)
		w.String(b.ReplyAddr)
		w.Bool(b.NoCache)
		w.String(b.Domain)
	case QueryResult:
		w.Bytes16(b.QueryID)
		w.Uvarint(uint64(len(b.Adverts)))
		for _, a := range b.Adverts {
			putAdvert(w, a)
		}
		w.Bool(b.Complete)
	case PeerQuery:
		w.Bytes16(b.QueryID)
		w.Byte(byte(b.Kind))
		w.BytesVar(b.Payload)
		w.String(b.ReplyAddr)
	case ArtifactGet:
		w.String(b.IRI)
	case ArtifactData:
		w.String(b.IRI)
		w.Bool(b.Found)
		w.BytesVar(b.Data)
	case Subscribe:
		w.Bytes16(b.SubID)
		w.Byte(byte(b.Kind))
		w.BytesVar(b.Payload)
		w.String(b.NotifyAddr)
		w.Uvarint(b.LeaseMillis)
	case SubscribeAck:
		w.Bytes16(b.SubID)
		w.Bool(b.OK)
		w.String(b.Error)
		w.Uvarint(b.LeaseMillis)
	case Unsubscribe:
		w.Bytes16(b.SubID)
	case ArtifactPut:
		w.String(b.IRI)
		w.BytesVar(b.Data)
	case ArtifactPutAck:
		w.String(b.IRI)
		w.Bool(b.OK)
	case SummaryDelta:
		w.Uvarint(b.Version)
		w.Uvarint(b.Base)
		w.Bool(b.Full)
		w.Uvarint(uint64(len(b.Entries)))
		for _, en := range b.Entries {
			w.Byte(byte(en.Kind))
			w.StringSlice(en.Add)
			w.StringSlice(en.Remove)
		}
	case SummaryAck:
		w.Uvarint(b.Version)
		w.Bool(b.Resync)
	case DirectoryDelta:
		w.Uvarint(b.Version)
		w.Uvarint(b.Base)
		w.Bool(b.Full)
		w.Uvarint(uint64(len(b.Entries)))
		for _, en := range b.Entries {
			putDirectoryEntry(w, en)
		}
	case DirectoryAck:
		w.Uvarint(b.Version)
		w.Bool(b.Resync)
	default:
		return fmt.Errorf("wire: cannot marshal body type %T", body)
	}
	return nil
}

func putPeers(w *codec.Buffer, ps []PeerInfo) {
	w.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.Bytes16(p.ID)
		w.String(p.Addr)
	}
}

func putDirectoryEntry(w *codec.Buffer, e DirectoryEntry) {
	w.String(e.Domain)
	w.Bytes16(e.Origin)
	w.String(e.Addr)
	w.Uvarint(e.Version)
	w.Bool(e.Tombstone)
}

func putAdvert(w *codec.Buffer, a Advertisement) {
	w.Bytes16(a.ID)
	w.Bytes16(a.Provider)
	w.String(a.ProviderAddr)
	w.Byte(byte(a.Kind))
	w.BytesVar(a.Payload)
	w.Uvarint(a.LeaseMillis)
	w.Uvarint(a.Version)
}

// AppendAdvert encodes an advertisement into the buffer using the same
// layout the protocol messages use. The registry's write-ahead log
// embeds adverts in its records with this, so the durable format and
// the wire format can never drift apart.
func AppendAdvert(w *codec.Buffer, a Advertisement) { putAdvert(w, a) }

// ReadAdvert decodes an advertisement written by AppendAdvert (or
// embedded in a protocol message) with the Decoder's advert reader. The
// payload is copied out of the input buffer, so the advert may be
// retained.
func ReadAdvert(r *codec.Reader) (Advertisement, error) {
	// A nil Decoder interns nothing: recovery reads every publish record
	// through here, and a Decoder (a ~2 kB struct with a map) per record
	// would cost more than the one string it could intern.
	a, err := (*Decoder)(nil).getAdvert(r)
	a.Payload = cloneBytes(a.Payload)
	return a, err
}

// cloneBytes detaches decoded payloads from the receive buffer so they
// can be retained safely.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
