package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

const (
	// numClients closed-loop connections, one op outstanding each:
	// service nodes awaiting a lease ack and clients awaiting a result
	// are callers that wait. nproc is 2 on the reference box.
	numClients = 2
	opTimeout  = time.Second
	sockBuf    = 4 << 20
	// sampleDatagrams request/reply pairs per client are kept for the
	// wire-layer replay of a traced run.
	sampleDatagrams = 256
)

type opKind uint8

const (
	opQuery opKind = iota
	opRenew
	opReplace
)

// opRecord is one completed or timed-out op as the client saw it.
type opRecord struct {
	end   int64 // ns since the session epoch, reply decoded (or timeout)
	lat   int64 // ns, request write → matching reply decoded
	gen   int64 // ns the harness spent building the request
	sum   uint64
	tmpl  int32 // query template index
	nres  int32
	kind  opKind
	ok    bool
	check bool // the reply itself was well-formed for this op
}

// client is one closed-loop connection speaking the wire protocol over
// a raw UDP socket.
type client struct {
	id    int
	conn  *net.UDPConn
	addr  string
	dst   netip.AddrPort
	self  uuid.UUID
	ids   *uuid.Generator
	rng   *rand.Rand
	dec   *wire.Decoder
	rbuf  []byte
	in    *inputs
	wl    *workloadDef
	epoch time.Time
	seq   int

	// churn state: own is the FIFO of this client's adverts, renewable
	// the slice of set-up adverts nobody ever removes.
	own       []uuid.UUID
	renewable []wire.Advertisement
	published []wire.Advertisement // acked by a PublishAck
	removed   []uuid.UUID          // Remove sent

	recs     []opRecord
	attempts atomic.Int64 // for the watchdog's partial report

	slot  *slot // non-nil in a traced session
	spans []span
	reqs  [][]byte
	reps  [][]byte
}

func openClient(id int, in *inputs, wl *workloadDef, seed int64) (*client, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	// Best effort: the kernel may clamp below 4 MiB; one outstanding op
	// per socket never needs more than a datagram anyway.
	_ = conn.SetReadBuffer(sockBuf)
	_ = conn.SetWriteBuffer(sockBuf)
	ids := uuid.NewGenerator(uint64(seed)<<8 | uint64(id+1))
	c := &client{
		id:   id,
		conn: conn,
		addr: conn.LocalAddr().String(),
		self: ids.New(),
		ids:  ids,
		rng:  rand.New(rand.NewSource(seed*31 + int64(id))),
		dec:  wire.NewDecoder(),
		rbuf: make([]byte, 64<<10),
		in:   in,
		wl:   wl,
	}
	if wl.topology == topoDurable {
		lo := id * ownPerClient
		for _, a := range in.adverts[lo : lo+ownPerClient] {
			c.own = append(c.own, a.ID)
		}
		c.renewable = in.adverts[numClients*ownPerClient:]
	}
	return c, nil
}

func (c *client) now() int64 { return int64(time.Since(c.epoch)) }

func (c *client) marshal(body wire.Body) []byte {
	b, err := wire.Marshal(wire.NewEnvelope(c.self, c.addr, body, c.ids))
	if err != nil {
		panic(fmt.Sprintf("bench: marshal %T: %v", body, err)) // only a harness bug can do this
	}
	return b
}

// loop issues ops back to back until stop is set.
func (c *client) loop(stop *atomic.Bool) {
	for !stop.Load() {
		c.recs = append(c.recs, c.do(c.wl.mix[c.seq%len(c.wl.mix)], -1))
		c.seq++
		c.attempts.Add(1)
	}
}

// do runs one op: build, send, await the matching reply. A query uses
// template tmpl, or draws one when tmpl is negative.
func (c *client) do(kind opKind, tmpl int) opRecord {
	rec := opRecord{kind: kind, tmpl: int32(tmpl)}
	t0 := c.now()
	var req []byte
	var want uuid.UUID
	var adv wire.Advertisement
	switch kind {
	case opQuery:
		set := c.in.templates(c.wl)
		if tmpl < 0 {
			rec.tmpl = int32(c.rng.Intn(len(set)))
		}
		want = c.ids.New()
		req = c.marshal(wire.Query{
			QueryID:    want,
			Kind:       describe.KindSemantic,
			Payload:    set[rec.tmpl],
			MaxResults: maxResults,
			TTL:        c.wl.ttl,
			ReplyAddr:  c.addr,
			Domain:     c.wl.domain,
		})
	case opRenew:
		want = c.renewable[c.rng.Intn(len(c.renewable))].ID
		req = c.marshal(wire.Renew{AdvertID: want})
	case opReplace:
		oldest := c.own[0]
		c.own = c.own[1:]
		c.removed = append(c.removed, oldest)
		if _, err := c.conn.WriteToUDPAddrPort(c.marshal(wire.Remove{AdvertID: oldest}), c.dst); err != nil {
			rec.end = c.now()
			return rec
		}
		adv = c.in.freshAdvert(c.rng, c.ids, c.id, c.seq)
		want = adv.ID
		req = c.marshal(wire.Publish{Advert: adv})
	}
	t1 := c.now()
	rec.gen = t1 - t0
	if _, err := c.conn.WriteToUDPAddrPort(req, c.dst); err != nil {
		rec.end = c.now()
		return rec
	}
	sent := c.now()
	n := c.await(kind, want, &rec)
	rec.end = c.now()
	rec.lat = rec.end - t1
	if rec.ok && kind == opReplace {
		c.published = append(c.published, adv)
		c.own = append(c.own, want)
	}
	if c.slot != nil && rec.ok {
		c.spans = append(c.spans, c.slot.span(c.id, c.seq, kind, t1, sent, rec.end))
		if len(c.reqs) < sampleDatagrams {
			c.reqs = append(c.reqs, req)
			c.reps = append(c.reps, append([]byte(nil), c.rbuf[:n]...))
		}
	}
	return rec
}

// await reads until the reply matching this op arrives or the op times
// out; late replies to earlier timed-out ops are skipped. It returns
// the matching datagram's length.
func (c *client) await(kind opKind, want uuid.UUID, rec *opRecord) int {
	_ = c.conn.SetReadDeadline(time.Now().Add(opTimeout))
	for {
		n, _, err := c.conn.ReadFromUDPAddrPort(c.rbuf)
		if err != nil {
			return 0
		}
		env, err := c.dec.Decode(c.rbuf[:n])
		if err != nil {
			continue
		}
		switch b := env.Body.(type) {
		case *wire.QueryResult:
			if kind != opQuery || b.QueryID != want {
				continue
			}
			rec.ok = true
			rec.nres = int32(len(b.Adverts))
			rec.sum = sumIDs(b.Adverts)
			rec.check = b.Complete && len(b.Adverts) <= maxResults
		case *wire.RenewAck:
			if kind != opRenew || b.AdvertID != want {
				continue
			}
			rec.ok, rec.check = b.OK, b.OK
		case *wire.PublishAck:
			if kind != opReplace || b.AdvertID != want {
				continue
			}
			rec.ok, rec.check = b.OK, b.OK
		default:
			continue
		}
		return n
	}
}

// sumIDs folds an ordered result list into one word (FNV-1a over the
// IDs), so every reply of a run can be compared with the reference
// without keeping the reply.
func sumIDs(adverts []wire.Advertisement) uint64 {
	h := uint64(14695981039346656037)
	for i := range adverts {
		for _, b := range adverts[i].ID {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}
