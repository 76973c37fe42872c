/**
 * @file
 * ServiceMetrics / LatencyHistogram edge cases: empty and single-sample
 * histograms, values beyond the top log bucket, degenerate inputs, and
 * increment consistency under concurrent writers.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/metrics.hpp"

namespace mse {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram: empty.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramReportsZeroes)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.percentile(q), 0.0) << "q=" << q;
}

TEST(LatencyHistogram, EmptyHistogramJsonIsAllZero)
{
    const JsonValue j = LatencyHistogram{}.toJson();
    EXPECT_EQ(j.getInt("count", -1), 0);
    EXPECT_EQ(j.getDouble("mean_s", -1.0), 0.0);
    EXPECT_EQ(j.getDouble("p50_s", -1.0), 0.0);
    EXPECT_EQ(j.getDouble("p99_s", -1.0), 0.0);
}

// ---------------------------------------------------------------------------
// LatencyHistogram: single sample.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, SingleSampleClampsAllPercentilesToIt)
{
    LatencyHistogram h;
    h.record(0.125);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0.125);
    EXPECT_EQ(h.max(), 0.125);
    EXPECT_EQ(h.mean(), 0.125);
    // Interpolation inside the winning bucket is clamped to the
    // observed [min, max], so every percentile is exactly the sample.
    for (double q : {0.0, 0.01, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), 0.125) << "q=" << q;
}

TEST(LatencyHistogram, PercentileQuantileIsClampedToUnitRange)
{
    LatencyHistogram h;
    h.record(2.0);
    EXPECT_DOUBLE_EQ(h.percentile(-3.0), 2.0);
    EXPECT_DOUBLE_EQ(h.percentile(7.5), 2.0);
}

// ---------------------------------------------------------------------------
// LatencyHistogram: degenerate and beyond-range values.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, ZeroAndNegativeLatenciesLandInBucketZero)
{
    LatencyHistogram h;
    h.record(0.0);
    h.record(-1.0); // Clock skew paranoia: must not crash or underflow.
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.min(), -1.0);
    // With no positive max the percentile falls back to the bucket-0
    // interpolation; it must stay finite and above the observed min.
    const double p = h.percentile(0.5);
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, h.min());
    EXPECT_LT(p, 1e-5); // bucket 0 territory, not garbage
}

TEST(LatencyHistogram, ValueBeyondTopBucketIsClampedNotLost)
{
    LatencyHistogram h;
    // Bucket i spans [2^(i-20), 2^(i-19)); the top bucket starts at
    // 2^(kBuckets-21) s. Record something far past it.
    const double huge = std::ldexp(1.0, LatencyHistogram::kBuckets);
    h.record(huge);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.max(), huge);
    // The sample is counted (clamped into the top bucket) and the
    // percentile clamps to the observed max, not the bucket edge.
    EXPECT_DOUBLE_EQ(h.percentile(0.99), huge);
}

TEST(LatencyHistogram, MixedInAndBeyondRangeKeepsCountsConsistent)
{
    LatencyHistogram h;
    h.record(1e-9);  // below bucket 0's nominal range
    h.record(0.001);
    h.record(1.0);
    h.record(1e12);  // beyond the top bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 1e-9 + 0.001 + 1.0 + 1e12);
    EXPECT_EQ(h.min(), 1e-9);
    EXPECT_EQ(h.max(), 1e12);
    // Percentiles are monotone in q and bounded by [min, max].
    double prev = h.percentile(0.0);
    for (double q : {0.25, 0.5, 0.75, 0.95, 1.0}) {
        const double v = h.percentile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        EXPECT_GE(v, h.min());
        EXPECT_LE(v, h.max());
        prev = v;
    }
}

// ---------------------------------------------------------------------------
// ServiceMetrics: snapshot shape on edge inputs.
// ---------------------------------------------------------------------------

TEST(ServiceMetrics, FreshRegistrySnapshotsZeroes)
{
    ServiceMetrics m;
    EXPECT_EQ(m.queueDepth(), 0u);
    const JsonValue j = m.toJson();
    const JsonValue *req = j.find("requests");
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->getInt("total", -1), 0);
    const JsonValue *lat = j.find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->getInt("count", -1), 0);
    const JsonValue *search = j.find("search");
    ASSERT_NE(search, nullptr);
    EXPECT_EQ(search->getInt("samples_total", -1), 0);
}

TEST(ServiceMetrics, QueueDepthNeverUnderflows)
{
    ServiceMetrics m;
    m.onDequeue(); // Dequeue without a matching enqueue.
    EXPECT_EQ(m.queueDepth(), 0u);
    m.onEnqueue();
    EXPECT_EQ(m.queueDepth(), 0u); // 1 enqueued, 1 dequeued.
}

TEST(ServiceMetrics, SearchSampleSplitsStoreKinds)
{
    ServiceMetrics m;
    ServiceMetrics::SearchSample s;
    s.store_kind = 2;
    m.onSearchDone(s);
    s.store_kind = 1;
    m.onSearchDone(s);
    s.store_kind = 0;
    s.timed_out = true;
    m.onSearchDone(s);
    const JsonValue j = m.toJson();
    const JsonValue *store = j.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->getInt("exact_hits", -1), 1);
    EXPECT_EQ(store->getInt("near_hits", -1), 1);
    EXPECT_EQ(store->getInt("cold", -1), 1);
    EXPECT_EQ(j.find("search")->getInt("timed_out", -1), 1);
    EXPECT_EQ(j.find("latency")->getInt("count", -1), 3);
}

// ---------------------------------------------------------------------------
// ServiceMetrics: concurrent increment consistency.
// ---------------------------------------------------------------------------

TEST(ServiceMetrics, ConcurrentIncrementsNeverDropUpdates)
{
    ServiceMetrics m;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 500;

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&m, t] {
            for (int i = 0; i < kPerThread; ++i) {
                m.onRequest(t % 2 == 0 ? "search" : "stats");
                m.onEnqueue();
                ServiceMetrics::SearchSample s;
                s.latency_seconds = 0.001 * (t + 1);
                s.samples = 10;
                s.store_kind = t % 3;
                m.onSearchDone(s);
                m.onDequeue();
            }
        });
    }
    for (auto &th : threads)
        th.join();

    constexpr uint64_t kTotal =
        static_cast<uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(m.queueDepth(), 0u);
    const JsonValue j = m.toJson();
    EXPECT_EQ(static_cast<uint64_t>(
                  j.find("requests")->getInt("total", -1)),
              kTotal);
    const JsonValue *search = j.find("search");
    ASSERT_NE(search, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(
                  search->getInt("samples_total", -1)),
              kTotal * 10);
    const JsonValue *lat = j.find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(lat->getInt("count", -1)), kTotal);
    // Store kinds partition the samples.
    const JsonValue *store = j.find("store");
    const int64_t split = store->getInt("exact_hits", 0) +
        store->getInt("near_hits", 0) + store->getInt("cold", 0);
    EXPECT_EQ(static_cast<uint64_t>(split), kTotal);
}

} // namespace
} // namespace mse
