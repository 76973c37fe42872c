/**
 * @file
 * Service metrics: counters, gauges, and a latency histogram.
 *
 * The mapping-search service (src/service/) answers a `stats` request
 * and dumps a final report on shutdown; both read one ServiceMetrics
 * instance that every request handler updates. The histogram uses
 * fixed log-spaced buckets, so recording is O(1), memory is constant
 * regardless of traffic, and percentile queries are cheap — the shape
 * a long-lived daemon needs (an exact reservoir would grow without
 * bound under the "millions of users" target).
 */
#pragma once

#include <cstdint>

#include "common/json.hpp"
#include "common/thread_annotations.hpp"

namespace mse {

/**
 * Log-bucketed latency histogram over (0, +inf) seconds.
 *
 * Bucket i spans [2^(i-20), 2^(i-19)) seconds, i in [0, kBuckets):
 * sub-microsecond latencies land in bucket 0 and the top bucket is
 * open-ended at ~36 hours. Percentiles interpolate linearly inside the
 * winning bucket, giving ~ +/-35% worst-case relative error — plenty
 * for p50/p95/p99 service dashboards.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 48;

    void record(double seconds);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ > 0 ? min_ : 0.0; }
    double max() const { return max_; }
    double mean() const
    {
        return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** Latency at quantile q in [0, 1]; 0 when empty. */
    double percentile(double q) const;

    /** {count, mean_s, min_s, max_s, p50_s, p95_s, p99_s}. */
    JsonValue toJson() const;

  private:
    uint64_t buckets_[kBuckets] = {};
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** One snapshot-able metrics registry for the mapping-search service. */
class ServiceMetrics
{
  public:
    /** Request accounting. */
    void onRequest(const char *type)
        EXCLUDES(mu_); ///< "search", "stats", "ping", ...
    void onError(const char *code)
        EXCLUDES(mu_); ///< structured error sent back
    void onRejectQueueFull() EXCLUDES(mu_);

    /** Queue lifecycle (depth gauge). */
    void onEnqueue() EXCLUDES(mu_);
    void onDequeue() EXCLUDES(mu_);

    /** One completed search request. */
    struct SearchSample
    {
        double latency_seconds = 0.0;
        /** Store outcome: 0 = cold, 1 = near (scaled), 2 = exact. */
        int store_kind = 0;
        bool store_improved = false;
        bool timed_out = false;
        bool cancelled = false;
        uint64_t samples = 0;
    };
    void onSearchDone(const SearchSample &s) EXCLUDES(mu_);

    /** The mapping store entered degraded (read-only) mode. */
    void onStoreDegraded() EXCLUDES(mu_);

    /** One replicate request applied: records merged into the local
     *  store vs. ignored (worse-or-equal / invalid). */
    void onReplicate(uint64_t merged, uint64_t ignored) EXCLUDES(mu_);

    /** Current queue depth (enqueued - dequeued). */
    uint64_t queueDepth() const EXCLUDES(mu_);

    /** Full snapshot as a JSON object (the `stats` reply body). */
    JsonValue toJson() const EXCLUDES(mu_);

  private:
    mutable Mutex mu_;
    uint64_t requests_total_ GUARDED_BY(mu_) = 0;
    uint64_t requests_search_ GUARDED_BY(mu_) = 0;
    uint64_t requests_stats_ GUARDED_BY(mu_) = 0;
    uint64_t requests_ping_ GUARDED_BY(mu_) = 0;
    uint64_t requests_replicate_ GUARDED_BY(mu_) = 0;
    uint64_t requests_probe_ GUARDED_BY(mu_) = 0;
    uint64_t requests_sync_ GUARDED_BY(mu_) = 0;
    uint64_t requests_other_ GUARDED_BY(mu_) = 0;
    uint64_t errors_total_ GUARDED_BY(mu_) = 0;
    uint64_t rejected_queue_full_ GUARDED_BY(mu_) = 0;
    uint64_t enqueued_ GUARDED_BY(mu_) = 0;
    uint64_t dequeued_ GUARDED_BY(mu_) = 0;
    uint64_t store_cold_ GUARDED_BY(mu_) = 0;
    uint64_t store_near_ GUARDED_BY(mu_) = 0;
    uint64_t store_exact_ GUARDED_BY(mu_) = 0;
    uint64_t store_improved_ GUARDED_BY(mu_) = 0;
    uint64_t store_degraded_events_ GUARDED_BY(mu_) = 0;
    uint64_t replicated_in_merged_ GUARDED_BY(mu_) = 0;
    uint64_t replicated_in_ignored_ GUARDED_BY(mu_) = 0;
    uint64_t timed_out_ GUARDED_BY(mu_) = 0;
    uint64_t cancelled_ GUARDED_BY(mu_) = 0;
    uint64_t samples_total_ GUARDED_BY(mu_) = 0;
    LatencyHistogram search_latency_ GUARDED_BY(mu_);
};

} // namespace mse
