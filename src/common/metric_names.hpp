/**
 * @file
 * The metrics-name registry: every key path the service's `stats`
 * reply can carry, as dotted-path constants.
 *
 * The stats document is a cross-file contract: emitted by
 * `ServiceMetrics::toJson` / `MseService::statsJson` /
 * `ReplicationAgent::statsJson`, read back by tests, the benches, and
 * the smoke/chaos harnesses (`grep '"degraded":true'`), and watched by
 * dashboards in production. `tools/mse_analyze.py` extracts the
 * emitted key tree structurally from those functions and cross-checks
 * it against this header (rules `metrics-key-undeclared` /
 * `metrics-key-stale`) and against the consumer files (rule
 * `metrics-key-orphan`: an emitted key nothing reads is dead weight on
 * every stats reply).
 *
 * A `*` segment stands for a dynamic key (per-store-key counts,
 * per-peer replication state).
 *
 * Adding a key: emit it, declare it here, add it to the right kind
 * array, and read it somewhere (tests/test_service.cpp's schema test
 * pins the static portion) — the analyzer fails CI until all agree.
 */
#pragma once

namespace mse {
namespace metric_names {

// Request accounting (ServiceMetrics::toJson).
inline constexpr const char *kRequestsTotal = "requests.total";
inline constexpr const char *kRequestsSearch = "requests.search";
inline constexpr const char *kRequestsStats = "requests.stats";
inline constexpr const char *kRequestsPing = "requests.ping";
inline constexpr const char *kRequestsReplicate = "requests.replicate";
inline constexpr const char *kRequestsProbe = "requests.probe";
inline constexpr const char *kRequestsSync = "requests.sync";
inline constexpr const char *kRequestsOther = "requests.other";
inline constexpr const char *kRequestsErrors = "requests.errors";
inline constexpr const char *kRequestsRejectedQueueFull =
    "requests.rejected_queue_full";
inline constexpr const char *kQueueDepthGauge = "queue_depth";

// Store outcomes (metrics half + statsJson half of the "store" block).
inline constexpr const char *kStoreExactHits = "store.exact_hits";
inline constexpr const char *kStoreNearHits = "store.near_hits";
inline constexpr const char *kStoreCold = "store.cold";
inline constexpr const char *kStoreImprovementsWritten =
    "store.improvements_written";
inline constexpr const char *kStoreDegradedEvents =
    "store.degraded_events";
inline constexpr const char *kStoreReplicatedInMerged =
    "store.replicated_in_merged";
inline constexpr const char *kStoreReplicatedInIgnored =
    "store.replicated_in_ignored";
inline constexpr const char *kStoreEntries = "store.entries";
inline constexpr const char *kStorePath = "store.path";
inline constexpr const char *kStoreMalformedLinesSkipped =
    "store.malformed_lines_skipped";
inline constexpr const char *kStoreSupersededLines =
    "store.superseded_lines";
inline constexpr const char *kStoreDegraded = "store.degraded";
inline constexpr const char *kStoreAppendFailures =
    "store.append_failures";
inline constexpr const char *kStorePerKey = "store.per_key.*";

// Search outcomes.
inline constexpr const char *kSearchTimedOut = "search.timed_out";
inline constexpr const char *kSearchCancelled = "search.cancelled";
inline constexpr const char *kSearchSamplesTotal =
    "search.samples_total";

// Latency histogram (LatencyHistogram::toJson under "latency").
inline constexpr const char *kLatencyCount = "latency.count";
inline constexpr const char *kLatencyMeanS = "latency.mean_s";
inline constexpr const char *kLatencyMinS = "latency.min_s";
inline constexpr const char *kLatencyMaxS = "latency.max_s";
inline constexpr const char *kLatencyP50S = "latency.p50_s";
inline constexpr const char *kLatencyP95S = "latency.p95_s";
inline constexpr const char *kLatencyP99S = "latency.p99_s";

// Service-level extras (MseService::statsJson).
inline constexpr const char *kUptimeS = "uptime_s";
inline constexpr const char *kQueueDepth = "queue.depth";
inline constexpr const char *kQueueRunning = "queue.running";
inline constexpr const char *kConfigExecutors = "config.executors";
inline constexpr const char *kConfigQueueCapacity =
    "config.queue_capacity";
inline constexpr const char *kConfigDefaultDeadlineSeconds =
    "config.default_deadline_seconds";
inline constexpr const char *kConfigDefaultSamples =
    "config.default_samples";
inline constexpr const char *kConfigWarmMaxDistance =
    "config.warm_max_distance";
inline constexpr const char *kConfigStoreWriteback =
    "config.store_writeback";

// Present only while MSE_FAULTS is armed (self-identifying test runs).
inline constexpr const char *kFaultsArmed = "faults.armed";
inline constexpr const char *kFaultsInjectedTotal =
    "faults.injected_total";

// Present only in cluster mode.
inline constexpr const char *kSelf = "self";
inline constexpr const char *kReplicationFactor =
    "replication.replication_factor";
inline constexpr const char *kReplicationNumPeers =
    "replication.num_peers";
inline constexpr const char *kReplicationQueueDepth =
    "replication.queue_depth";
inline constexpr const char *kReplicationShipped =
    "replication.shipped";
inline constexpr const char *kReplicationAcked = "replication.acked";
inline constexpr const char *kReplicationMergedByPeers =
    "replication.merged_by_peers";
inline constexpr const char *kReplicationDropped =
    "replication.dropped";
inline constexpr const char *kReplicationShipFailures =
    "replication.ship_failures";
inline constexpr const char *kReplicationLagS = "replication.lag_s";
inline constexpr const char *kReplicationHintsQueued =
    "replication.hints_queued";
inline constexpr const char *kReplicationHintsDropped =
    "replication.hints_dropped";
inline constexpr const char *kReplicationHintsShipped =
    "replication.hints_shipped";
inline constexpr const char *kReplicationSyncRounds =
    "replication.sync_rounds";
inline constexpr const char *kReplicationSyncPulled =
    "replication.sync_pulled";
inline constexpr const char *kReplicationPeersQueueDepth =
    "replication.peers.*.queue_depth";
inline constexpr const char *kReplicationPeersShipped =
    "replication.peers.*.shipped";
inline constexpr const char *kReplicationPeersAcked =
    "replication.peers.*.acked";
inline constexpr const char *kReplicationPeersMergedByPeer =
    "replication.peers.*.merged_by_peer";
inline constexpr const char *kReplicationPeersDropped =
    "replication.peers.*.dropped";
inline constexpr const char *kReplicationPeersShipFailures =
    "replication.peers.*.ship_failures";
inline constexpr const char *kReplicationPeersLagS =
    "replication.peers.*.lag_s";
inline constexpr const char *kReplicationPeersBackoffMs =
    "replication.peers.*.backoff_ms";
inline constexpr const char *kReplicationPeersHealth =
    "replication.peers.*.health";
inline constexpr const char *kReplicationPeersHintsQueued =
    "replication.peers.*.hints_queued";
inline constexpr const char *kReplicationPeersHintsDropped =
    "replication.peers.*.hints_dropped";
inline constexpr const char *kReplicationPeersHintsShipped =
    "replication.peers.*.hints_shipped";

// Peer health (HealthMonitor::statsJson, mounted at "health" in
// cluster mode).
inline constexpr const char *kHealthProbeIntervalMs =
    "health.probe_interval_ms";
inline constexpr const char *kHealthDownAfter = "health.down_after";
inline constexpr const char *kHealthPeersUp = "health.peers_up";
inline constexpr const char *kHealthPeersSuspect =
    "health.peers_suspect";
inline constexpr const char *kHealthPeersDown = "health.peers_down";
inline constexpr const char *kHealthProbesSent = "health.probes_sent";
inline constexpr const char *kHealthProbesFailed =
    "health.probes_failed";
inline constexpr const char *kHealthPeersState =
    "health.peers.*.state";
inline constexpr const char *kHealthPeersConsecutiveFailures =
    "health.peers.*.consecutive_failures";
inline constexpr const char *kHealthPeersProbesSent =
    "health.peers.*.probes_sent";
inline constexpr const char *kHealthPeersProbesFailed =
    "health.peers.*.probes_failed";
inline constexpr const char *kHealthPeersTransitions =
    "health.peers.*.transitions";

/** Keys every stats reply carries, cluster or not, faults or not —
 *  the static schema tests pin exactly this set. */
inline constexpr const char *kAlwaysKeys[] = {
    kRequestsTotal, kRequestsSearch, kRequestsStats, kRequestsPing,
    kRequestsReplicate, kRequestsProbe, kRequestsSync,
    kRequestsOther, kRequestsErrors,
    kRequestsRejectedQueueFull, kQueueDepthGauge, kStoreExactHits,
    kStoreNearHits, kStoreCold, kStoreImprovementsWritten,
    kStoreDegradedEvents, kStoreReplicatedInMerged,
    kStoreReplicatedInIgnored, kStoreEntries, kStorePath,
    kStoreMalformedLinesSkipped, kStoreSupersededLines, kStoreDegraded,
    kStoreAppendFailures, kSearchTimedOut, kSearchCancelled,
    kSearchSamplesTotal, kLatencyCount, kLatencyMeanS,
    kLatencyMinS, kLatencyMaxS, kLatencyP50S, kLatencyP95S,
    kLatencyP99S, kUptimeS, kQueueDepth, kQueueRunning,
    kConfigExecutors, kConfigQueueCapacity,
    kConfigDefaultDeadlineSeconds, kConfigDefaultSamples,
    kConfigWarmMaxDistance, kConfigStoreWriteback,
};

/** Conditional keys: faults armed, cluster mode, replication agent. */
inline constexpr const char *kConditionalKeys[] = {
    kStorePerKey, kFaultsArmed, kFaultsInjectedTotal, kSelf,
    kReplicationFactor, kReplicationNumPeers, kReplicationQueueDepth,
    kReplicationShipped, kReplicationAcked, kReplicationMergedByPeers,
    kReplicationDropped, kReplicationShipFailures, kReplicationLagS,
    kReplicationHintsQueued, kReplicationHintsDropped,
    kReplicationHintsShipped, kReplicationSyncRounds,
    kReplicationSyncPulled, kReplicationPeersQueueDepth,
    kReplicationPeersShipped, kReplicationPeersAcked,
    kReplicationPeersMergedByPeer, kReplicationPeersDropped,
    kReplicationPeersShipFailures, kReplicationPeersLagS,
    kReplicationPeersBackoffMs, kReplicationPeersHealth,
    kReplicationPeersHintsQueued, kReplicationPeersHintsDropped,
    kReplicationPeersHintsShipped, kHealthProbeIntervalMs,
    kHealthDownAfter, kHealthPeersUp, kHealthPeersSuspect,
    kHealthPeersDown, kHealthProbesSent, kHealthProbesFailed,
    kHealthPeersState, kHealthPeersConsecutiveFailures,
    kHealthPeersProbesSent, kHealthPeersProbesFailed,
    kHealthPeersTransitions,
};

} // namespace metric_names
} // namespace mse
