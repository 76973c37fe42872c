#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mse {

namespace {

/** Bucket index for a latency: floor(log2(s)) + 20, clamped. */
int
bucketOf(double seconds)
{
    if (seconds <= 0.0)
        return 0;
    const int i = static_cast<int>(std::floor(std::log2(seconds))) + 20;
    return std::clamp(i, 0, LatencyHistogram::kBuckets - 1);
}

/** Lower bound of bucket i in seconds. */
double
bucketLow(int i)
{
    return std::ldexp(1.0, i - 20);
}

} // namespace

void
LatencyHistogram::record(double seconds)
{
    ++buckets_[bucketOf(seconds)];
    ++count_;
    sum_ += seconds;
    if (count_ == 1 || seconds < min_)
        min_ = seconds;
    if (seconds > max_)
        max_ = seconds;
}

double
LatencyHistogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        const double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) >= rank) {
            // Interpolate within the bucket, clamped to observed range.
            const double frac = buckets_[i] > 0
                ? (rank - before) / static_cast<double>(buckets_[i])
                : 0.0;
            const double lo = bucketLow(i);
            const double v = lo + std::clamp(frac, 0.0, 1.0) * lo;
            return std::clamp(v, min_, max_ > 0.0 ? max_ : v);
        }
    }
    return max_;
}

JsonValue
LatencyHistogram::toJson() const
{
    JsonValue j = JsonValue::object();
    j["count"] = count_;
    j["mean_s"] = mean();
    j["min_s"] = min();
    j["max_s"] = max();
    j["p50_s"] = percentile(0.50);
    j["p95_s"] = percentile(0.95);
    j["p99_s"] = percentile(0.99);
    return j;
}

void
ServiceMetrics::onRequest(const char *type)
{
    MutexLock lk(mu_);
    ++requests_total_;
    if (std::strcmp(type, "search") == 0)
        ++requests_search_;
    else if (std::strcmp(type, "stats") == 0)
        ++requests_stats_;
    else if (std::strcmp(type, "ping") == 0)
        ++requests_ping_;
    else if (std::strcmp(type, "replicate") == 0)
        ++requests_replicate_;
    else if (std::strcmp(type, "probe") == 0)
        ++requests_probe_;
    else if (std::strcmp(type, "sync") == 0)
        ++requests_sync_;
    else
        ++requests_other_;
}

void
ServiceMetrics::onError(const char *code)
{
    (void)code;
    MutexLock lk(mu_);
    ++errors_total_;
}

void
ServiceMetrics::onRejectQueueFull()
{
    MutexLock lk(mu_);
    ++rejected_queue_full_;
    ++errors_total_;
}

void
ServiceMetrics::onEnqueue()
{
    MutexLock lk(mu_);
    ++enqueued_;
}

void
ServiceMetrics::onDequeue()
{
    MutexLock lk(mu_);
    ++dequeued_;
}

void
ServiceMetrics::onSearchDone(const SearchSample &s)
{
    MutexLock lk(mu_);
    search_latency_.record(s.latency_seconds);
    switch (s.store_kind) {
      case 2: ++store_exact_; break;
      case 1: ++store_near_; break;
      default: ++store_cold_; break;
    }
    if (s.store_improved)
        ++store_improved_;
    if (s.timed_out)
        ++timed_out_;
    if (s.cancelled)
        ++cancelled_;
    samples_total_ += s.samples;
}

void
ServiceMetrics::onStoreDegraded()
{
    MutexLock lk(mu_);
    ++store_degraded_events_;
}

void
ServiceMetrics::onReplicate(uint64_t merged, uint64_t ignored)
{
    MutexLock lk(mu_);
    replicated_in_merged_ += merged;
    replicated_in_ignored_ += ignored;
}

uint64_t
ServiceMetrics::queueDepth() const
{
    MutexLock lk(mu_);
    return enqueued_ >= dequeued_ ? enqueued_ - dequeued_ : 0;
}

JsonValue
ServiceMetrics::toJson() const
{
    MutexLock lk(mu_);
    JsonValue j = JsonValue::object();
    JsonValue &req = j["requests"];
    req["total"] = requests_total_;
    req["search"] = requests_search_;
    req["stats"] = requests_stats_;
    req["ping"] = requests_ping_;
    req["replicate"] = requests_replicate_;
    req["probe"] = requests_probe_;
    req["sync"] = requests_sync_;
    req["other"] = requests_other_;
    req["errors"] = errors_total_;
    req["rejected_queue_full"] = rejected_queue_full_;
    j["queue_depth"] =
        enqueued_ >= dequeued_ ? enqueued_ - dequeued_ : uint64_t{0};
    JsonValue &store = j["store"];
    store["exact_hits"] = store_exact_;
    store["near_hits"] = store_near_;
    store["cold"] = store_cold_;
    store["improvements_written"] = store_improved_;
    store["degraded_events"] = store_degraded_events_;
    store["replicated_in_merged"] = replicated_in_merged_;
    store["replicated_in_ignored"] = replicated_in_ignored_;
    JsonValue &search = j["search"];
    search["timed_out"] = timed_out_;
    search["cancelled"] = cancelled_;
    search["samples_total"] = samples_total_;
    j["latency"] = search_latency_.toJson();
    return j;
}

} // namespace mse
