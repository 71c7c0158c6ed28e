package federation

import "semdisco/internal/obs"

// Runtime observability counters for the federation protocol loops.
// They mirror the per-registry Stats struct into the process-wide obs
// registry (so live registryd exposes them over -http and
// simdisco can diff them per phase) and add the beacon/summary/read-
// pool activity Stats never carried. Documented in OBSERVABILITY.md.
var (
	fQueriesReceived = obs.NewCounter("federation.queries.received", "count",
		"queries arriving at a registry (client or forwarded)")
	fQueriesDuplicate = obs.NewCounter("federation.queries.duplicate", "count",
		"queries suppressed by query-ID loop avoidance")
	fQueriesForwarded = obs.NewCounter("federation.queries.forwarded", "count",
		"query copies forwarded to peer registries")
	fForwardsPruned = obs.NewCounter("federation.forwards.pruned", "count",
		"peer forwards skipped because the peer summary cannot match")
	fQueriesAnswered = obs.NewCounter("federation.queries.answered", "count",
		"aggregated responses sent toward the query origin")
	fResultsReturned = obs.NewCounter("federation.results.returned", "count",
		"advertisements carried in responses toward the origin")
	fAdvertsPushed = obs.NewCounter("federation.adverts.pushed", "count",
		"advertisement replicas pushed to peers (push cooperation)")
	fPeersExpired = obs.NewCounter("federation.peers.expired", "count",
		"peers dropped after the ping timeout")
	fBeaconsSent = obs.NewCounter("federation.beacons.sent", "count",
		"LAN presence beacons multicast")
	fSummariesSent = obs.NewCounter("federation.summaries.sent", "count",
		"summary gossip messages sent to peers")
	fDeltaSent = obs.NewCounter("federation.delta.sent", "count",
		"incremental summary deltas sent to peers")
	fDeltaFullSent = obs.NewCounter("federation.delta.full", "count",
		"full summary resyncs sent (first contact, periodic refresh, or requested)")
	fDeltaSkipped = obs.NewCounter("federation.delta.skipped", "count",
		"summary ticks where a fully-acked peer was sent nothing")
	fDeltaApplied = obs.NewCounter("federation.delta.applied", "count",
		"summary deltas and resyncs applied to a peer's summary")
	fDeltaStale = obs.NewCounter("federation.delta.stale", "count",
		"deltas rejected because their base version did not match")
	fDeltaResyncs = obs.NewCounter("federation.delta.resyncs", "count",
		"acks received requesting a full resync")
	fReadPoolAsync = obs.NewCounter("federation.readpool.async", "count",
		"local evaluations dispatched to the read worker pool")
	fReadPoolInline = obs.NewCounter("federation.readpool.inline", "count",
		"local evaluations run on the node goroutine (no pool or pool full)")
	fRCacheHits = obs.NewCounter("federation.rcache.hits", "count",
		"queries whose remote pools were served from the gateway result cache (no fan-out)")
	fRCacheMisses = obs.NewCounter("federation.rcache.misses", "count",
		"gateway result cache lookups with no usable entry")
	fRCacheExpired = obs.NewCounter("federation.rcache.expired", "count",
		"gateway result cache entries dropped past their lease-bounded TTL")
	fRCacheSize = obs.NewGauge("federation.rcache.size", "count",
		"resident gateway result cache entries")

	// Domain directory (registry-of-registries) activity: the gossiped
	// hierarchy of directory.go.
	fDirEntries = obs.NewGauge("federation.directory.entries", "count",
		"resident live domain directory entries")
	fDirTombstones = obs.NewGauge("federation.directory.tombstones", "count",
		"resident tombstoned (departed-domain) directory entries")
	fDirMergeApplied = obs.NewCounter("federation.directory.merges.applied", "count",
		"directory entries accepted by the origin-stamped merge")
	fDirMergeStale = obs.NewCounter("federation.directory.merges.stale", "count",
		"directory entries rejected as stale or duplicate by the merge")
	fDirDeltaSent = obs.NewCounter("federation.directory.delta.sent", "count",
		"incremental directory deltas sent to peers")
	fDirDeltaFull = obs.NewCounter("federation.directory.delta.full", "count",
		"full directory snapshots sent (first contact, periodic refresh, or requested)")
	fDirDeltaSkipped = obs.NewCounter("federation.directory.delta.skipped", "count",
		"directory ticks where a fully-acked peer was sent nothing")
	fDirDeltaStale = obs.NewCounter("federation.directory.delta.stale", "count",
		"directory deltas rejected because their base stream version did not match")
	fDirResyncs = obs.NewCounter("federation.directory.resyncs", "count",
		"directory acks received requesting a full snapshot")
	fDirLookupHit = obs.NewCounter("federation.directory.lookups.hit", "count",
		"domain-scoped queries resolved to a gateway through the directory")
	fDirLookupMiss = obs.NewCounter("federation.directory.lookups.miss", "count",
		"domain-scoped queries whose domain the directory did not know")
	fDirRootFallback = obs.NewCounter("federation.directory.root.fallback", "count",
		"domain-scoped queries escalated to the root after a directory miss")
	fDirTombExpired = obs.NewCounter("federation.directory.tombstones.expired", "count",
		"tombstoned directory entries aged out after TombstoneTTL")
)
