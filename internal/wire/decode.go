package wire

import (
	"fmt"

	"semdisco/internal/codec"
	"semdisco/internal/describe"
	"semdisco/internal/uuid"
)

// Decoder is the zero-allocation receive path, mirroring the pooled
// encode path: one Decoder per receive loop decodes every inbound
// envelope into reused storage instead of allocating a fresh body per
// message.
//
// The contract is strict borrow semantics:
//
//   - The returned *Envelope, its Body, and every slice reachable from
//     them (payloads, advert lists, peer lists, token lists) are valid
//     only until the next Decode call on the same Decoder. Handlers
//     that retain any of it beyond the call must copy (strings are the
//     exception — they are interned and immutable, so retaining them is
//     safe and cheap).
//   - Byte payloads alias the input buffer: they are valid only while
//     the datagram buffer is, and must never be mutated.
//
// Steady-state decode of every message type is allocation-free: bodies
// are reused fields, strings come from a bounded intern table, and
// slices regrow into retained backing arrays.
type Decoder struct {
	env Envelope

	// Reused body storage, one field per message type so a decoded
	// pointer body never aliases a different type's storage.
	probe          Probe
	probeMatch     ProbeMatch
	beacon         Beacon
	bye            Bye
	ping           Ping
	pong           Pong
	peerExchange   PeerExchange
	summary        Summary
	gatewayClaim   GatewayClaim
	publish        Publish
	publishAck     PublishAck
	renew          Renew
	renewAck       RenewAck
	remove         Remove
	advertForward  AdvertForward
	query          Query
	queryResult    QueryResult
	peerQuery      PeerQuery
	artifactGet    ArtifactGet
	artifactData   ArtifactData
	subscribe      Subscribe
	subscribeAck   SubscribeAck
	unsubscribe    Unsubscribe
	artifactPut    ArtifactPut
	artifactPutAck ArtifactPutAck
	summaryDelta   SummaryDelta
	summaryAck     SummaryAck
	directoryDelta DirectoryDelta
	directoryAck   DirectoryAck

	// Reused slice storage.
	peers      []PeerInfo
	adverts    []Advertisement
	sumEntries []SummaryEntry
	dltEntries []SummaryDeltaEntry
	dirEntries []DirectoryEntry

	// strLists pools []string backing arrays for token lists; strListIdx
	// is reset per Decode so concurrent lists within one body (delta
	// add/remove pairs, per-kind summary entries) each get their own.
	strLists   [][]string
	strListIdx int

	// rdr is the embedded frame reader, Reset per Decode so the hot
	// path never heap-allocates a Reader.
	rdr codec.Reader

	// strs interns decoded strings: addresses, tokens and IRIs repeat
	// heavily across messages, so steady state hits the table and
	// allocates nothing. Interned strings are immutable and safe to
	// retain. The table is cleared when it exceeds maxInternStrings so a
	// hostile peer cannot grow it without bound.
	strs map[string]string
}

// maxInternStrings bounds the decoder's string intern table.
const maxInternStrings = 8192

// NewDecoder returns a Decoder ready for use by a single receive loop.
// A Decoder is not safe for concurrent use.
func NewDecoder() *Decoder {
	return &Decoder{strs: make(map[string]string)}
}

// intern returns a stable string for b, allocating only the first time a
// value is seen (the map lookup keyed by string(b) does not allocate).
// A nil Decoder interns nothing and allocates every string.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if d == nil {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if len(d.strs) >= maxInternStrings {
		clear(d.strs)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// internString reads a length-prefixed string and interns it.
func (d *Decoder) internString(r *codec.Reader) (string, error) {
	b, err := r.BytesVar()
	if err != nil {
		return "", err
	}
	return d.intern(b), nil
}

// strList reads a count-prefixed string slice into pooled backing
// storage with every element interned.
func (d *Decoder) strList(r *codec.Reader) ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: %d strings with %d bytes left", codec.ErrTruncated, n, r.Remaining())
	}
	idx := d.strListIdx
	d.strListIdx++
	if idx >= len(d.strLists) {
		d.strLists = append(d.strLists, nil)
	}
	lst := d.strLists[idx][:0]
	for i := uint64(0); i < n; i++ {
		s, err := d.internString(r)
		if err != nil {
			return nil, err
		}
		lst = append(lst, s)
	}
	d.strLists[idx] = lst
	if len(lst) == 0 {
		return nil, nil
	}
	return lst, nil
}

// getPeers reads a peer list into the decoder's reused slice.
func (d *Decoder) getPeers(r *codec.Reader) ([]PeerInfo, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: peer count %d exceeds payload", n)
	}
	out := d.peers[:0]
	for i := uint64(0); i < n; i++ {
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		addr, err := d.internString(r)
		if err != nil {
			return nil, err
		}
		out = append(out, PeerInfo{ID: uuid.UUID(id), Addr: addr})
	}
	d.peers = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// getAdvert reads one advertisement; the payload aliases the input
// buffer and ProviderAddr is interned.
func (d *Decoder) getAdvert(r *codec.Reader) (Advertisement, error) {
	var a Advertisement
	id, err := r.Bytes16()
	if err != nil {
		return a, err
	}
	a.ID = uuid.UUID(id)
	prov, err := r.Bytes16()
	if err != nil {
		return a, err
	}
	a.Provider = uuid.UUID(prov)
	if a.ProviderAddr, err = d.internString(r); err != nil {
		return a, err
	}
	k, err := r.Byte()
	if err != nil {
		return a, err
	}
	a.Kind = describe.Kind(k)
	if a.Payload, err = r.BytesVar(); err != nil {
		return a, err
	}
	if len(a.Payload) == 0 {
		a.Payload = nil
	}
	if a.LeaseMillis, err = r.Uvarint(); err != nil {
		return a, err
	}
	if a.Version, err = r.Uvarint(); err != nil {
		return a, err
	}
	return a, nil
}

// Decode decodes one received single-envelope frame. The result is
// owned by the Decoder and valid only until the next Decode call; see
// the type comment for the borrow contract. Batch frames must be split
// with ForEachInBatch first.
func (d *Decoder) Decode(b []byte) (*Envelope, error) {
	d.rdr.Reset(b)
	r := &d.rdr
	m0, err := r.Byte()
	if err != nil {
		return nil, err
	}
	m1, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if m0 != magic0 || m1 != magic1 {
		return nil, fmt.Errorf("wire: bad magic %02x%02x", m0, m1)
	}
	v, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if v != wireVersion {
		return nil, fmt.Errorf("wire: unsupported version %d", v)
	}
	t, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if t == batchFrameType {
		return nil, fmt.Errorf("wire: batch frame passed to Decode")
	}
	d.strListIdx = 0
	e := &d.env
	e.Type = MsgType(t)
	from, err := r.Bytes16()
	if err != nil {
		return nil, err
	}
	e.From = uuid.UUID(from)
	mid, err := r.Bytes16()
	if err != nil {
		return nil, err
	}
	e.MsgID = uuid.UUID(mid)
	if e.FromAddr, err = d.internString(r); err != nil {
		return nil, err
	}
	if e.Body, err = d.decodeBody(r, e.Type); err != nil {
		return nil, err
	}
	if err := r.Expect(e.Type.String()); err != nil {
		return nil, err
	}
	return e, nil
}

func (d *Decoder) decodeBody(r *codec.Reader, t MsgType) (Body, error) {
	switch t {
	case TProbe:
		return &d.probe, nil
	case TBye:
		return &d.bye, nil
	case TPing:
		var err error
		d.ping.FromRegistry, err = r.Bool()
		return &d.ping, err
	case TProbeMatch:
		ps, err := d.getPeers(r)
		d.probeMatch.Peers = ps
		return &d.probeMatch, err
	case TBeacon:
		ps, err := d.getPeers(r)
		d.beacon.Peers = ps
		return &d.beacon, err
	case TPong:
		ps, err := d.getPeers(r)
		d.pong.Peers = ps
		return &d.pong, err
	case TPeerExchange:
		ps, err := d.getPeers(r)
		d.peerExchange.Peers = ps
		return &d.peerExchange, err
	case TSummary:
		n, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: summary entry count %d exceeds payload", n)
		}
		entries := d.sumEntries[:0]
		for i := uint64(0); i < n; i++ {
			k, err := r.Byte()
			if err != nil {
				return nil, err
			}
			toks, err := d.strList(r)
			if err != nil {
				return nil, err
			}
			entries = append(entries, SummaryEntry{Kind: describe.Kind(k), Tokens: toks})
		}
		d.sumEntries = entries
		d.summary.Entries = entries
		if n == 0 {
			d.summary.Entries = nil
		}
		return &d.summary, nil
	case TGatewayClaim:
		var err error
		d.gatewayClaim.Yield, err = r.Bool()
		return &d.gatewayClaim, err
	case TPublish:
		a, err := d.getAdvert(r)
		d.publish.Advert = a
		return &d.publish, err
	case TPublishAck:
		b := &d.publishAck
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.AdvertID = uuid.UUID(id)
		if b.OK, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.Error, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.LeaseMillis, err = r.Uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	case TRenew:
		id, err := r.Bytes16()
		d.renew.AdvertID = uuid.UUID(id)
		return &d.renew, err
	case TRenewAck:
		b := &d.renewAck
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.AdvertID = uuid.UUID(id)
		if b.OK, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.LeaseMillis, err = r.Uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	case TRemove:
		id, err := r.Bytes16()
		d.remove.AdvertID = uuid.UUID(id)
		return &d.remove, err
	case TAdvertForward:
		a, err := d.getAdvert(r)
		if err != nil {
			return nil, err
		}
		d.advertForward.Advert = a
		d.advertForward.HopsLeft, err = r.Byte()
		return &d.advertForward, err
	case TQuery:
		b := &d.query
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.QueryID = uuid.UUID(id)
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		b.Kind = describe.Kind(k)
		if b.Payload, err = r.BytesVar(); err != nil {
			return nil, err
		}
		if len(b.Payload) == 0 {
			b.Payload = nil
		}
		mr, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		b.MaxResults = uint16(mr)
		if b.BestOnly, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.TTL, err = r.Byte(); err != nil {
			return nil, err
		}
		s, err := r.Byte()
		if err != nil {
			return nil, err
		}
		b.Strategy = Strategy(s)
		if b.Walkers, err = r.Byte(); err != nil {
			return nil, err
		}
		if b.ReplyAddr, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.NoCache, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.Domain, err = d.internString(r); err != nil {
			return nil, err
		}
		return b, nil
	case TQueryResult:
		b := &d.queryResult
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.QueryID = uuid.UUID(id)
		n, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: advert count %d exceeds payload", n)
		}
		adverts := d.adverts[:0]
		for i := uint64(0); i < n; i++ {
			a, err := d.getAdvert(r)
			if err != nil {
				return nil, err
			}
			adverts = append(adverts, a)
		}
		d.adverts = adverts
		b.Adverts = adverts
		if n == 0 {
			b.Adverts = nil
		}
		if b.Complete, err = r.Bool(); err != nil {
			return nil, err
		}
		return b, nil
	case TPeerQuery:
		b := &d.peerQuery
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.QueryID = uuid.UUID(id)
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		b.Kind = describe.Kind(k)
		if b.Payload, err = r.BytesVar(); err != nil {
			return nil, err
		}
		if len(b.Payload) == 0 {
			b.Payload = nil
		}
		if b.ReplyAddr, err = d.internString(r); err != nil {
			return nil, err
		}
		return b, nil
	case TArtifactGet:
		var err error
		d.artifactGet.IRI, err = d.internString(r)
		return &d.artifactGet, err
	case TArtifactData:
		b := &d.artifactData
		var err error
		if b.IRI, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.Found, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.Data, err = r.BytesVar(); err != nil {
			return nil, err
		}
		if len(b.Data) == 0 {
			b.Data = nil
		}
		return b, nil
	case TSubscribe:
		b := &d.subscribe
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.SubID = uuid.UUID(id)
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		b.Kind = describe.Kind(k)
		if b.Payload, err = r.BytesVar(); err != nil {
			return nil, err
		}
		if len(b.Payload) == 0 {
			b.Payload = nil
		}
		if b.NotifyAddr, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.LeaseMillis, err = r.Uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	case TSubscribeAck:
		b := &d.subscribeAck
		id, err := r.Bytes16()
		if err != nil {
			return nil, err
		}
		b.SubID = uuid.UUID(id)
		if b.OK, err = r.Bool(); err != nil {
			return nil, err
		}
		if b.Error, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.LeaseMillis, err = r.Uvarint(); err != nil {
			return nil, err
		}
		return b, nil
	case TUnsubscribe:
		id, err := r.Bytes16()
		d.unsubscribe.SubID = uuid.UUID(id)
		return &d.unsubscribe, err
	case TArtifactPut:
		b := &d.artifactPut
		var err error
		if b.IRI, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.Data, err = r.BytesVar(); err != nil {
			return nil, err
		}
		if len(b.Data) == 0 {
			b.Data = nil
		}
		return b, nil
	case TArtifactPutAck:
		b := &d.artifactPutAck
		var err error
		if b.IRI, err = d.internString(r); err != nil {
			return nil, err
		}
		if b.OK, err = r.Bool(); err != nil {
			return nil, err
		}
		return b, nil
	case TSummaryDelta:
		b := &d.summaryDelta
		var err error
		if b.Version, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Base, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Full, err = r.Bool(); err != nil {
			return nil, err
		}
		n, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: delta entry count %d exceeds payload", n)
		}
		entries := d.dltEntries[:0]
		for i := uint64(0); i < n; i++ {
			k, err := r.Byte()
			if err != nil {
				return nil, err
			}
			add, err := d.strList(r)
			if err != nil {
				return nil, err
			}
			rem, err := d.strList(r)
			if err != nil {
				return nil, err
			}
			entries = append(entries, SummaryDeltaEntry{Kind: describe.Kind(k), Add: add, Remove: rem})
		}
		d.dltEntries = entries
		b.Entries = entries
		if n == 0 {
			b.Entries = nil
		}
		return b, nil
	case TSummaryAck:
		b := &d.summaryAck
		var err error
		if b.Version, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Resync, err = r.Bool(); err != nil {
			return nil, err
		}
		return b, nil
	case TDirectoryDelta:
		b := &d.directoryDelta
		var err error
		if b.Version, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Base, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Full, err = r.Bool(); err != nil {
			return nil, err
		}
		n, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("wire: directory entry count %d exceeds payload", n)
		}
		entries := d.dirEntries[:0]
		for i := uint64(0); i < n; i++ {
			var en DirectoryEntry
			if en.Domain, err = d.internString(r); err != nil {
				return nil, err
			}
			origin, err := r.Bytes16()
			if err != nil {
				return nil, err
			}
			en.Origin = uuid.UUID(origin)
			if en.Addr, err = d.internString(r); err != nil {
				return nil, err
			}
			if en.Version, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if en.Tombstone, err = r.Bool(); err != nil {
				return nil, err
			}
			entries = append(entries, en)
		}
		d.dirEntries = entries
		b.Entries = entries
		if n == 0 {
			b.Entries = nil
		}
		return b, nil
	case TDirectoryAck:
		b := &d.directoryAck
		var err error
		if b.Version, err = r.Uvarint(); err != nil {
			return nil, err
		}
		if b.Resync, err = r.Bool(); err != nil {
			return nil, err
		}
		return b, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
}

// CloneAdverts detaches decoder-owned advertisements so they may be
// retained beyond the handler: the slice and every payload are copied
// (strings are interned and already stable).
func CloneAdverts(as []Advertisement) []Advertisement {
	if len(as) == 0 {
		return nil
	}
	out := make([]Advertisement, len(as))
	copy(out, as)
	for i := range out {
		out[i].Payload = cloneBytes(out[i].Payload)
	}
	return out
}

// CloneAdvert detaches one decoder-owned advertisement (payload copy).
func CloneAdvert(a Advertisement) Advertisement {
	a.Payload = cloneBytes(a.Payload)
	return a
}

// CloneBytes detaches a decoder-borrowed byte payload for retention.
func CloneBytes(b []byte) []byte { return cloneBytes(b) }
