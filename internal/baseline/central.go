// Package baseline implements the comparison systems §3 of the paper
// analyses, with exactly the discovery-relevant behaviour the paper
// attributes to them:
//
//   - CentralRegistry: a UDDI-style centralized registry. Statically
//     configured endpoint (answers no probes, sends no beacons), no
//     leasing ("neither UDDI nor ebXML use leasing, and are dependent
//     on services actively de-registering themselves"), no federation
//     (TTL ignored), template evaluation via the same pluggable models.
//   - DHTNode: a super-peer distributed hash table. Advertisements are
//     indexed under a single string token; queries are routed by the
//     token's hash and answered by exact string matching only —
//     "semantic query evaluation cannot be performed at the
//     intermediate nodes in such systems" (§3.3).
//
// The pure decentralized baseline needs no node type of its own: a
// world without registries exercises the client's multicast fallback
// and the service nodes' direct answering (internal/node).
package baseline

import (
	"slices"
	"strings"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/match"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// CentralRegistry is the UDDI-like baseline registry.
type CentralRegistry struct {
	env    *runtime.Env
	models *describe.Registry

	adverts map[uuid.UUID]centralEntry
	byKind  map[describe.Kind]map[uuid.UUID]centralEntry

	// Stats counts protocol activity.
	Stats struct {
		Publishes uint64
		Queries   uint64
		Removes   uint64
	}
}

type centralEntry struct {
	advert wire.Advertisement
	desc   describe.Description
}

// NewCentral builds a central registry.
func NewCentral(env *runtime.Env, models *describe.Registry) *CentralRegistry {
	return &CentralRegistry{
		env:     env,
		models:  models,
		adverts: make(map[uuid.UUID]centralEntry),
		byKind:  make(map[describe.Kind]map[uuid.UUID]centralEntry),
	}
}

// Len returns the number of stored advertisements (stale ones
// included — that is the point of this baseline).
func (c *CentralRegistry) Len() int { return len(c.adverts) }

// HandleEnvelope implements runtime.Handler.
func (c *CentralRegistry) HandleEnvelope(env *wire.Envelope, from transport.Addr) {
	switch b := env.Body.(type) {
	case *wire.Publish:
		c.Stats.Publishes++
		// The advert is retained in the store maps below; its payload is
		// borrowed from the receive buffer, so deep-copy first.
		adv := wire.CloneAdvert(b.Advert)
		model, ok := c.models.Model(adv.Kind)
		if !ok {
			c.env.Send(from, wire.PublishAck{AdvertID: adv.ID, OK: false, Error: "unsupported kind"})
			return
		}
		desc, err := model.DecodeDescription(adv.Payload)
		if err != nil {
			c.env.Send(from, wire.PublishAck{AdvertID: adv.ID, OK: false, Error: err.Error()})
			return
		}
		e := centralEntry{advert: adv, desc: desc}
		c.adverts[adv.ID] = e
		km := c.byKind[adv.Kind]
		if km == nil {
			km = make(map[uuid.UUID]centralEntry)
			c.byKind[adv.Kind] = km
		}
		km[adv.ID] = e
		// UDDI has no lease concept; grant an effectively infinite one
		// so well-behaved services stop worrying about renewal.
		c.env.Send(from, wire.PublishAck{AdvertID: adv.ID, OK: true, LeaseMillis: uint64(time.Hour * 24 * 365 / time.Millisecond)})
	case *wire.Renew:
		// Meaningless here; acknowledge so providers don't fail over.
		c.env.Send(from, wire.RenewAck{AdvertID: b.AdvertID, OK: true, LeaseMillis: uint64(time.Hour * 24 * 365 / time.Millisecond)})
	case *wire.Remove:
		c.Stats.Removes++
		if e, ok := c.adverts[b.AdvertID]; ok {
			delete(c.adverts, b.AdvertID)
			delete(c.byKind[e.advert.Kind], b.AdvertID)
		}
	case *wire.Query:
		c.Stats.Queries++
		c.answer(b)
	}
}

func (c *CentralRegistry) answer(q *wire.Query) {
	model, ok := c.models.Model(q.Kind)
	var hits []wire.Advertisement
	if ok {
		if dq, err := model.DecodeQuery(q.Payload); err == nil {
			type scored struct {
				adv wire.Advertisement
				ev  describe.Evaluation
				key string
			}
			var all []scored
			for _, e := range c.byKind[q.Kind] {
				if ev := model.Evaluate(dq, e.desc); ev.Matched {
					all = append(all, scored{adv: e.advert, ev: ev, key: e.desc.ServiceKey()})
				}
			}
			// The registry's rank order: quality, then service key, then
			// advert ID. The map range above visits hits in random order
			// and UDDI never supersedes, so adverts sharing a service key
			// (a service re-published under a fresh ID) need the ID
			// tiebreak for a seed to give one answer.
			slices.SortFunc(all, func(a, b scored) int {
				if c := match.CompareQuality(a.ev.Degree, a.ev.Score, b.ev.Degree, b.ev.Score); c != 0 {
					return c
				}
				if c := strings.Compare(a.key, b.key); c != 0 {
					return c
				}
				return uuid.Compare(a.adv.ID, b.adv.ID)
			})
			limit := int(q.MaxResults)
			if limit <= 0 {
				limit = 25
			}
			if q.BestOnly {
				limit = 1
			}
			if len(all) > limit {
				all = all[:limit]
			}
			for _, s := range all {
				hits = append(hits, s.adv)
			}
		}
	}
	c.env.Send(transport.Addr(q.ReplyAddr), wire.QueryResult{QueryID: q.QueryID, Adverts: hits, Complete: true})
}

// Adopt is a convenience used by experiments: it lets a central
// registry pre-load advertisements without wire traffic.
func (c *CentralRegistry) Adopt(store *registry.Store) {
	for _, adv := range store.Adverts() {
		model, ok := c.models.Model(adv.Kind)
		if !ok {
			continue
		}
		desc, err := model.DecodeDescription(adv.Payload)
		if err != nil {
			continue
		}
		e := centralEntry{advert: adv, desc: desc}
		c.adverts[adv.ID] = e
		km := c.byKind[adv.Kind]
		if km == nil {
			km = make(map[uuid.UUID]centralEntry)
			c.byKind[adv.Kind] = km
		}
		km[adv.ID] = e
	}
}
