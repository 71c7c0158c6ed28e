package registry

import "semdisco/internal/obs"

// Runtime observability counters for the registry hot paths. All are
// process-wide (obs.Default): a simulation running many stores observes
// their sum. Names, units and the experiments they support are
// documented in OBSERVABILITY.md; `make docs-check` keeps that file in
// sync with this list.
var (
	mPublish = obs.NewCounter("registry.publish", "count",
		"advertisements stored or updated")
	mPublishErrors = obs.NewCounter("registry.publish.errors", "count",
		"publishes rejected (unknown kind, bad payload, stale version)")
	mEvaluate = obs.NewCounter("registry.evaluate", "count",
		"local query evaluations")
	mEvaluateLatency = obs.NewHistogram("registry.evaluate.latency_us", "us",
		"local query evaluation latency", obs.LatencyBucketsUS)
	mEvaluateTruncated = obs.NewCounter("registry.evaluate.truncated", "count",
		"evaluations whose matches exceeded the result cap (top-K truncation)")
	mMergeRank = obs.NewCounter("registry.mergerank", "count",
		"federated result merge-rank passes")
	mPlanCacheHits = obs.NewCounter("registry.plancache.hits", "count",
		"query plans served from the LRU plan cache")
	mPlanCacheMisses = obs.NewCounter("registry.plancache.misses", "count",
		"query payload decodes (plan cache misses or caching disabled)")
	mAdverts = obs.NewGauge("registry.adverts", "count",
		"live advertisements across all stores")
	mAdvertsExpired = obs.NewCounter("registry.adverts.expired", "count",
		"advertisements purged by lease expiry")
	// The lease lifecycle of §4.8 made visible: a healthy population
	// renews, a churning one expires.
	mLeaseGranted = obs.NewCounter("lease.granted", "count",
		"leases created or refreshed by publish")
	mLeaseRenewed = obs.NewCounter("lease.renewed", "count",
		"leases extended by explicit renewal")
	mLeaseExpired = obs.NewCounter("lease.expired", "count",
		"leases that lapsed and were swept")
	mShardScans = obs.NewCounter("registry.shard.scans", "count",
		"per-shard candidate scans, aggregated over all shards")
	mQCacheHits = obs.NewCounter("registry.qcache.hits", "count",
		"queries answered from the generation-validated result cache")
	mQCacheMisses = obs.NewCounter("registry.qcache.misses", "count",
		"queries evaluated live (no resident entry or hash collision)")
	mQCacheInvalidations = obs.NewCounter("registry.qcache.invalidations", "count",
		"cached result sets dropped because a generation counter of a token their query can see moved, or a lease deadline passed")
	mQCacheSize = obs.NewGauge("registry.qcache.size", "count",
		"resident query result cache entries")
	mQCacheShared = obs.NewCounter("registry.qcache.singleflight.shared", "count",
		"queries that waited on an identical in-flight evaluation instead of recomputing")
	mSubCandidates = obs.NewCounter("registry.subindex.candidates", "count",
		"standing-query candidates probed per publish, aggregated")
	mSubMatched = obs.NewCounter("registry.subindex.matched", "count",
		"standing queries that matched a publish (notifications produced)")
	mSubIndexSize = obs.NewGauge("registry.subindex.size", "count",
		"standing queries resident in the inverted notification index")
	mSubFallbackScans = obs.NewCounter("registry.subindex.fallback.scans", "count",
		"publishes that scanned every standing query (index disabled or token-less advert)")
	mSubIndexRebuilds = obs.NewCounter("registry.subindex.rebuilds", "count",
		"posting-list rebuilds compacting lazily removed subscriptions")
	mArenaSlabs = obs.NewGauge("registry.arena.slabs", "count",
		"advert arena slabs allocated across all shards")
	mArenaFree = obs.NewGauge("registry.arena.free", "count",
		"recycled advert arena slots awaiting reuse")
	mTokensInterned = obs.NewGauge("registry.tokens.interned", "count",
		"distinct summary tokens interned across all stores")
	mWALAppends = obs.NewCounter("registry.wal.appends", "count",
		"mutation records appended to the write-ahead log")
	mWALBytes = obs.NewCounter("registry.wal.bytes", "bytes",
		"bytes appended to the write-ahead log, frame headers included")
	mWALFsyncs = obs.NewCounter("registry.wal.fsyncs", "count",
		"group-commit durability barriers issued (flush, plus fsync when WALConfig.Fsync)")
	mWALSyncShared = obs.NewCounter("registry.wal.sync.shared", "count",
		"durability waits satisfied by another caller's barrier (group-commit batching)")
	mWALFsyncLatency = obs.NewHistogram("registry.wal.fsync.latency_us", "us",
		"write-ahead log fsync barrier latency", obs.LatencyBucketsUS)
	mWALPreallocExtends = obs.NewCounter("registry.wal.prealloc.extends", "count",
		"write-ahead log segment chunks preallocated (one at segment open, one per extension)")
	mWALSegments = obs.NewGauge("registry.wal.segments", "count",
		"live write-ahead log segment files (sealed plus open)")
	mWALReplayed = obs.NewCounter("registry.wal.replay.records", "count",
		"log records replayed at recovery")
	mWALTorn = obs.NewCounter("registry.wal.replay.torn", "count",
		"torn or corrupt log frames discarded at recovery (crash tails)")
	mWALRecoverRejected = obs.NewCounter("registry.wal.recover_rejected", "count",
		"logged or snapshotted adverts skipped at recovery because the models reject their payload")
	mSnapshotWrites = obs.NewCounter("registry.snapshot.writes", "count",
		"compacted snapshots written")
	mSnapshotErrors = obs.NewCounter("registry.snapshot.errors", "count",
		"snapshot compactions that failed (input segments retained for retry)")
	mSnapshotAdverts = obs.NewGauge("registry.snapshot.adverts", "count",
		"adverts captured in the latest compacted snapshot")
	mSnapshotBytes = obs.NewGauge("registry.snapshot.bytes", "bytes",
		"size of the latest compacted snapshot file")
)
