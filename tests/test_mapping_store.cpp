/**
 * @file
 * MappingStore durability: record round-trip, reload-after-append,
 * torn/corrupted-tail recovery, best-per-key semantics, compaction,
 * and writer serialization under concurrency; plus a differential
 * test of the indexed near-neighbour lookup against a whole-store scan.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "core/model_sweep.hpp"
#include "mapping/mapping_io.hpp"
#include "service/mapping_store.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

using test::miniNpu;
using test::tinyConv;
using test::tinyGemm;

/** A legal mapping for (wl, arch): every loop at DRAM. */
Mapping
topMapping(const Workload &wl, const ArchConfig &arch)
{
    return test::allAtTop(wl, arch);
}

std::string
tempStorePath(const char *tag)
{
    return test::tempPath(std::string("mse_store_") + tag + ".jsonl");
}

/** Raw file contents (for tail-corruption surgery). */
std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string text;
    int c;
    while ((c = std::fgetc(f)) != EOF)
        text += static_cast<char>(c);
    std::fclose(f);
    return text;
}

void
spit(const std::string &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
}

TEST(MappingStore, EncodeDecodeRoundTrip)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = "0123456789abcdef";
    e.objective = Objective::Latency;
    e.sparse = true;
    e.mapping = topMapping(wl, arch);
    e.score = 1234.5;
    e.energy_uj = 6.5;
    e.latency_cycles = 190.0;
    e.samples = 777;

    const auto back = MappingStore::decodeEntry(
        MappingStore::encodeEntry(e));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->workload.signature(), wl.signature());
    EXPECT_EQ(back->arch_sig, e.arch_sig);
    EXPECT_EQ(back->objective, Objective::Latency);
    EXPECT_TRUE(back->sparse);
    EXPECT_EQ(serializeMapping(back->mapping),
              serializeMapping(e.mapping));
    EXPECT_EQ(back->score, e.score);
    EXPECT_EQ(back->samples, 777u);
}

TEST(MappingStore, DecodeRejectsGarbage)
{
    EXPECT_FALSE(MappingStore::decodeEntry("").has_value());
    EXPECT_FALSE(MappingStore::decodeEntry("not json").has_value());
    EXPECT_FALSE(MappingStore::decodeEntry("{}").has_value());
    EXPECT_FALSE(
        MappingStore::decodeEntry("{\"v\":2}").has_value());
    // Valid JSON, wrong content.
    EXPECT_FALSE(MappingStore::decodeEntry(
                     "{\"v\":1,\"objective\":\"EDP\",\"arch_sig\":"
                     "\"xyz\",\"workload\":\"junk\",\"mapping\":"
                     "\"junk\",\"score\":1}")
                     .has_value());
}

TEST(MappingStore, RecordLookupAndReload)
{
    const std::string path = tempStorePath("reload");
    std::remove(path.c_str());
    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();
    const Mapping m = topMapping(wl, arch);

    {
        MappingStore store(path);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_TRUE(store.recordIfBetter(wl, arch, Objective::Edp,
                                         false, m, 100.0, 1.0, 10.0,
                                         50));
        // Worse score: rejected, not persisted.
        EXPECT_FALSE(store.recordIfBetter(wl, arch, Objective::Edp,
                                          false, m, 200.0, 2.0, 20.0,
                                          50));
        // Better score: replaces.
        EXPECT_TRUE(store.recordIfBetter(wl, arch, Objective::Edp,
                                         false, m, 80.0, 0.8, 8.0,
                                         60));
        // Same workload, different objective: separate key.
        EXPECT_TRUE(store.recordIfBetter(wl, arch, Objective::Latency,
                                         false, m, 10.0, 1.0, 10.0,
                                         5));
        // Same key but sparse model: separate key again.
        EXPECT_TRUE(store.recordIfBetter(wl, arch, Objective::Edp,
                                         true, m, 55.0, 1.0, 10.0, 5));
        EXPECT_EQ(store.size(), 3u);
    }

    // Fresh instance reloads from disk; best records win.
    MappingStore store(path);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.malformedLines(), 0u);
    const auto hit =
        store.lookup(wl, arch, Objective::Edp, false, 0.0);
    ASSERT_EQ(hit.hit, StoreHit::Exact);
    EXPECT_EQ(hit.entry.score, 80.0);
    EXPECT_EQ(hit.entry.samples, 60u);
    EXPECT_EQ(hit.distance, 0.0);
    EXPECT_EQ(store
                  .lookup(wl, arch, Objective::Latency, false, 0.0)
                  .entry.score,
              10.0);
    EXPECT_EQ(store.lookup(wl, arch, Objective::Edp, true, 0.0)
                  .entry.score,
              55.0);
    std::remove(path.c_str());
}

TEST(MappingStore, NearLookupFindsScaledNeighbor)
{
    MappingStore store; // in-memory
    const ArchConfig arch = miniNpu();
    const Workload small = makeGemm("g", 1, 8, 8, 8);
    const Workload big = makeGemm("g", 1, 16, 8, 8);
    const Workload far = makeGemm("g", 64, 512, 512, 512);
    store.recordIfBetter(small, arch, Objective::Edp, false,
                         topMapping(small, arch), 42.0, 1.0, 10.0, 9);

    const auto near =
        store.lookup(big, arch, Objective::Edp, false, 8.0);
    ASSERT_EQ(near.hit, StoreHit::Near);
    EXPECT_GT(near.distance, 0.0);
    EXPECT_EQ(near.entry.score, 42.0);

    // Beyond the distance budget: miss.
    EXPECT_EQ(store.lookup(far, arch, Objective::Edp, false, 1.0).hit,
              StoreHit::Miss);
    // Different arch: never a neighbor.
    EXPECT_EQ(store
                  .lookup(big, test::flatArch(), Objective::Edp, false,
                          100.0)
                  .hit,
              StoreHit::Miss);
}

TEST(MappingStore, TruncatedTailRecovery)
{
    const std::string path = tempStorePath("torn");
    std::remove(path.c_str());
    const ArchConfig arch = miniNpu();
    const Workload a = tinyGemm();
    const Workload b = tinyConv();
    {
        MappingStore store(path);
        store.recordIfBetter(a, arch, Objective::Edp, false,
                             topMapping(a, arch), 10.0, 1.0, 1.0, 1);
        store.recordIfBetter(b, arch, Objective::Edp, false,
                             topMapping(b, arch), 20.0, 2.0, 2.0, 2);
    }

    // Simulate a crash mid-append: chop the last record in half.
    const std::string full = slurp(path);
    const size_t second_line = full.find('\n') + 1;
    const size_t cut =
        second_line + (full.size() - second_line) / 2;
    spit(path, full.substr(0, cut));

    MappingStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.malformedLines(), 1u);
    EXPECT_EQ(store.lookup(a, arch, Objective::Edp, false, 0.0).hit,
              StoreHit::Exact);
    EXPECT_EQ(store.lookup(b, arch, Objective::Edp, false, 0.0).hit,
              StoreHit::Miss);

    // The torn store still accepts appends afterwards.
    EXPECT_TRUE(store.recordIfBetter(b, arch, Objective::Edp, false,
                                     topMapping(b, arch), 20.0, 2.0,
                                     2.0, 2));
    MappingStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 2u);
    std::remove(path.c_str());
}

TEST(MappingStore, CorruptedMiddleLineSkippedRestKept)
{
    const std::string path = tempStorePath("corrupt");
    std::remove(path.c_str());
    const ArchConfig arch = miniNpu();
    const Workload a = tinyGemm();
    const Workload b = tinyConv();
    {
        MappingStore store(path);
        store.recordIfBetter(a, arch, Objective::Edp, false,
                             topMapping(a, arch), 10.0, 1.0, 1.0, 1);
        store.recordIfBetter(b, arch, Objective::Edp, false,
                             topMapping(b, arch), 20.0, 2.0, 2.0, 2);
    }
    // Bit-rot the first line (keep its length so line 2 is intact).
    std::string full = slurp(path);
    full[5] = '#';
    spit(path, full);

    MappingStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.malformedLines(), 1u);
    EXPECT_EQ(store.lookup(b, arch, Objective::Edp, false, 0.0).hit,
              StoreHit::Exact);
    std::remove(path.c_str());
}

TEST(MappingStore, RecordsWhoseMappingDoesNotFitTheirWorkloadAreSkipped)
{
    // One record per shape fault: a mapping with another dim count, and
    // a keep mask longer than the workload's tensor count. Both count as
    // malformed lines; the valid record beside them loads.
    const std::string path = tempStorePath("shape");
    std::remove(path.c_str());
    const ArchConfig arch = miniNpu();
    const Workload wl = tinyGemm();
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = fnv1a64Hex(arch.signature());
    e.objective = Objective::Edp;
    e.score = 5.0;
    e.mapping = Mapping(arch.numLevels(), wl.numDims() - 1);
    const std::string wrong_dims = MappingStore::encodeEntry(e);
    e.mapping = topMapping(wl, arch);
    e.mapping.setKeepMask(0, std::vector<uint8_t>(
                                 static_cast<size_t>(wl.numTensors()) + 1, 1));
    const std::string long_mask = MappingStore::encodeEntry(e);
    EXPECT_FALSE(MappingStore::decodeEntry(wrong_dims).has_value());
    EXPECT_FALSE(MappingStore::decodeEntry(long_mask).has_value());
    e.mapping = topMapping(wl, arch);
    const std::string valid = MappingStore::encodeEntry(e);
    ASSERT_TRUE(MappingStore::decodeEntry(valid).has_value());

    spit(path, wrong_dims + "\n" + long_mask + "\n" + valid + "\n");
    MappingStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.malformedLines(), 2u);
    EXPECT_EQ(store.lookup(wl, arch, Objective::Edp, false, 0.0).hit,
              StoreHit::Exact);
    std::remove(path.c_str());
}

TEST(MappingStore, CompactRewritesToLiveSet)
{
    const std::string path = tempStorePath("compact");
    std::remove(path.c_str());
    const ArchConfig arch = miniNpu();
    const Workload wl = tinyGemm();
    MappingStore store(path);
    // 10 strictly improving records = 1 live + 9 dead lines.
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(store.recordIfBetter(
            wl, arch, Objective::Edp, false, topMapping(wl, arch),
            100.0 - i, 1.0, 1.0, static_cast<uint64_t>(i)));
    }
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.deadLines(), 9u);
    EXPECT_TRUE(store.compact());
    EXPECT_EQ(store.deadLines(), 0u);

    // Exactly one line remains on disk, and it is the best record.
    const std::string text = slurp(path);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    MappingStore reloaded(path);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_EQ(
        reloaded.lookup(wl, arch, Objective::Edp, false, 0.0).entry
            .score,
        91.0);
    std::remove(path.c_str());
}

TEST(MappingStore, ConcurrentWritersSerializeThroughLock)
{
    const std::string path = tempStorePath("race");
    std::remove(path.c_str());
    const ArchConfig arch = miniNpu();
    {
        MappingStore store(path);
        // 4 threads x 50 improving writes to 4 distinct keys (by
        // objective/model) plus a contended shared key.
        const Workload wl = tinyGemm();
        auto writer = [&](int tid) {
            const Objective obj = tid % 2 ? Objective::Edp
                                          : Objective::Latency;
            const bool sparse = tid >= 2;
            for (int i = 0; i < 50; ++i) {
                store.recordIfBetter(
                    wl, arch, obj, sparse, topMapping(wl, arch),
                    1000.0 - i, 1.0, 1.0,
                    static_cast<uint64_t>(tid * 1000 + i));
                store.recordIfBetter(wl, arch, Objective::Ed2p, false,
                                     topMapping(wl, arch),
                                     2000.0 - tid * 50 - i, 1.0, 1.0,
                                     1);
            }
        };
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t)
            threads.emplace_back(writer, t);
        for (auto &t : threads)
            t.join();
        EXPECT_EQ(store.size(), 5u);
    }

    // Every appended line must be intact (no interleaved writes), and
    // each key's best must be the global minimum written.
    MappingStore reloaded(path);
    EXPECT_EQ(reloaded.malformedLines(), 0u);
    EXPECT_EQ(reloaded.size(), 5u);
    const Workload wl = tinyGemm();
    EXPECT_EQ(
        reloaded.lookup(wl, arch, Objective::Edp, false, 0.0).entry
            .score,
        951.0);
    EXPECT_EQ(
        reloaded.lookup(wl, arch, Objective::Ed2p, false, 0.0).entry
            .score,
        2000.0 - 3 * 50 - 49);
    std::remove(path.c_str());
}

// ---- Near-neighbour index vs. whole-store scan -----------------------

using Snapshot = std::vector<std::pair<std::string, StoreEntry>>;

/** Every live entry of store with its key. */
Snapshot
snapshotOf(const MappingStore &store)
{
    Snapshot out;
    for (StoreEntry &e : store.entriesBetterThan({}, 0)) {
        std::string key = MappingStore::keyOfEntry(e);
        out.emplace_back(std::move(key), std::move(e));
    }
    return out;
}

/**
 * Reference lookup: the exact key, else a scan of every live entry
 * for the (distance, key)-least same-arch, same-objective, same-model
 * neighbour within max_distance. *ties counts the entries at the
 * least distance.
 */
MappingStore::Lookup
scanLookup(const Snapshot &entries, const Workload &wl,
           const ArchConfig &arch, Objective objective, bool sparse,
           double max_distance, size_t *ties)
{
    MappingStore::Lookup out;
    *ties = 0;
    const std::string key =
        MappingStore::keyOf(wl, arch, objective, sparse);
    for (const auto &kv : entries) {
        if (kv.first == key) {
            out.hit = StoreHit::Exact;
            out.entry = kv.second;
            out.distance = 0.0;
            return out;
        }
    }
    const std::string arch_sig = fnv1a64Hex(arch.signature());
    double best_dist = std::numeric_limits<double>::infinity();
    const StoreEntry *best_entry = nullptr;
    const std::string *best_key = nullptr;
    for (const auto &kv : entries) {
        const StoreEntry &e = kv.second;
        if (e.arch_sig != arch_sig || e.objective != objective ||
            e.sparse != sparse)
            continue;
        const double d = workloadDistance(SimilarityMetric::BoundRatio,
                                          wl, e.workload);
        if (d < best_dist)
            *ties = 0;
        if (d == best_dist || d < best_dist)
            ++*ties;
        if (d < best_dist ||
            (d == best_dist && best_key && kv.first < *best_key)) {
            best_dist = d;
            best_entry = &e;
            best_key = &kv.first;
        }
    }
    if (best_entry && best_dist <= max_distance) {
        out.hit = StoreHit::Near;
        out.entry = *best_entry;
        out.distance = best_dist;
    }
    return out;
}

struct NearQuery
{
    Workload wl;
    const ArchConfig *arch = nullptr;
    Objective objective = Objective::Edp;
    bool sparse = false;
};

/** Hit kinds seen by one phase, and Near hits chosen among ties. */
struct PhaseCounts
{
    size_t exact = 0;
    size_t near = 0;
    size_t miss = 0;
    size_t tied_near = 0;
};

/** lookup() must match scanLookup() bit for bit on every query. */
PhaseCounts
expectMatchesScan(const MappingStore &store,
                  const std::vector<NearQuery> &queries,
                  const std::string &phase)
{
    const Snapshot entries = snapshotOf(store);
    PhaseCounts counts;
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < queries.size(); ++i) {
        const NearQuery &q = queries[i];
        for (const double max_d : {0.0, 1.0, 8.0, inf}) {
            size_t ties = 0;
            const auto want = scanLookup(entries, q.wl, *q.arch,
                                         q.objective, q.sparse, max_d,
                                         &ties);
            const auto got =
                store.lookup(q.wl, *q.arch, q.objective, q.sparse, max_d);
            const std::string where = phase + ": query " +
                std::to_string(i) + " max_distance " +
                std::to_string(max_d);
            EXPECT_EQ(got.hit, want.hit) << where;
            EXPECT_EQ(std::bit_cast<uint64_t>(got.distance),
                      std::bit_cast<uint64_t>(want.distance))
                << where << ": " << got.distance << " vs "
                << want.distance;
            if (want.hit != StoreHit::Miss && got.hit == want.hit) {
                EXPECT_EQ(MappingStore::keyOfEntry(got.entry),
                          MappingStore::keyOfEntry(want.entry))
                    << where;
                EXPECT_EQ(std::bit_cast<uint64_t>(got.entry.score),
                          std::bit_cast<uint64_t>(want.entry.score))
                    << where;
            }
            if (testing::Test::HasFailure())
                return counts;
            if (max_d != inf)
                continue;
            switch (want.hit) {
              case StoreHit::Exact: ++counts.exact; break;
              case StoreHit::Near:
                ++counts.near;
                counts.tied_near += ties > 1;
                break;
              case StoreHit::Miss: ++counts.miss; break;
            }
        }
    }
    return counts;
}

/** Bounds drawn from a lattice with non-power-of-two members, so the
 *  log2 rounding of the index is exercised, not just exact powers. */
int64_t
pick(Rng &rng, std::initializer_list<int64_t> values)
{
    return *(values.begin() + rng.index(values.size()));
}

Workload
randomWorkload(Rng &rng)
{
    if (rng.chance(0.5)) {
        const std::initializer_list<int64_t> mkn = {3, 7, 8, 14, 16, 28, 32, 64, 96, 128, 256, 768};
        return makeGemm("g", pick(rng, {1, 2, 4, 16}), pick(rng, mkn),
                        pick(rng, mkn), pick(rng, mkn));
    }
    const std::initializer_list<int64_t> ch = {3, 8, 16, 24, 32, 64, 96};
    const std::initializer_list<int64_t> yx = {7, 14, 28, 56};
    const std::initializer_list<int64_t> rs = {1, 3, 5};
    return makeConv2d("c", pick(rng, {1, 2}), pick(rng, ch),
                      pick(rng, ch), pick(rng, yx), pick(rng, yx),
                      pick(rng, rs), pick(rng, rs));
}

/** wl with dimension d's bound multiplied by num / den. */
Workload
rescaled(const Workload &wl, int d, int64_t num, int64_t den)
{
    std::vector<int64_t> bounds = wl.bounds();
    bounds[static_cast<size_t>(d)] =
        std::max<int64_t>(1, bounds[static_cast<size_t>(d)] * num / den);
    return Workload(wl.name(), wl.dimNames(), bounds, wl.tensors());
}

TEST(MappingStoreNearIndex, MatchesWholeStoreScan)
{
    const std::string path = tempStorePath("near_index");
    const std::string torn_path = tempStorePath("near_index_torn");
    std::remove(path.c_str());
    std::remove(torn_path.c_str());
    const ArchConfig arch_a = miniNpu();
    const ArchConfig arch_b = test::flatArch();
    const ArchConfig arch_unseen = test::flatArch(1 << 10);
    const ArchConfig *archs[] = {&arch_a, &arch_b};
    const Objective objectives[] = {Objective::Edp, Objective::Energy,
                                    Objective::Latency, Objective::Ed2p,
                                    Objective::E2dp};
    Rng rng(12);

    const auto randomQuery = [&](Workload wl) {
        NearQuery q;
        q.wl = std::move(wl);
        q.arch = archs[rng.index(2)];
        q.objective = objectives[rng.index(5)];
        q.sparse = rng.chance(0.5);
        return q;
    };
    const auto entryOf = [&](const NearQuery &q, double score) {
        StoreEntry e;
        e.workload = q.wl;
        e.arch_sig = fnv1a64Hex(q.arch->signature());
        e.objective = q.objective;
        e.sparse = q.sparse;
        e.mapping = topMapping(q.wl, *q.arch);
        e.score = score;
        e.samples = 1;
        return e;
    };
    std::vector<NearQuery> stored;
    MappingStore store(path);
    const auto record = [&](const NearQuery &q, double score) {
        store.recordIfBetter(q.wl, *q.arch, q.objective, q.sparse,
                             topMapping(q.wl, *q.arch), score, 1.0, 1.0,
                             1);
        stored.push_back(q);
    };

    std::vector<NearQuery> queries;
    for (int i = 0; i < 2000; ++i)
        record(randomQuery(randomWorkload(rng)), rng.uniformReal(1, 1e3));
    // Planted ties. (1) An unstored base with neighbours at x2 and /2
    // on one dim and x2 on another: three entries at distance 1.
    // (2) Stored density variants of an unstored dense base: two
    // entries at distance 0 under different keys.
    for (int i = 0; i < 40; ++i) {
        const NearQuery base = randomQuery(randomWorkload(rng));
        const int d = static_cast<int>(rng.index(
            static_cast<size_t>(base.wl.numDims())));
        const int e = (d + 1) % base.wl.numDims();
        for (const Workload &wl :
             {rescaled(base.wl, d, 2, 1), rescaled(base.wl, d, 1, 2),
              rescaled(base.wl, e, 2, 1)}) {
            NearQuery n = base;
            n.wl = wl;
            record(n, rng.uniformReal(1, 1e3));
        }
        queries.push_back(base);
    }
    for (int i = 0; i < 20; ++i) {
        const NearQuery base = randomQuery(randomWorkload(rng));
        for (const double density : {0.5, 0.25}) {
            NearQuery n = base;
            n.wl.setDensity("Weights", density);
            record(n, rng.uniformReal(1, 1e3));
        }
        queries.push_back(base);
    }
    // Improvements (and rejected regressions) of existing keys.
    for (int i = 0; i < 300; ++i)
        record(stored[rng.index(stored.size())], rng.uniformReal(0.1, 2e3));
    ASSERT_GE(store.size(), 2000u);

    // Exact keys, perturbed neighbours, fresh workloads, an unseen
    // dim-name set and an unseen arch.
    for (int i = 0; i < 40; ++i)
        queries.push_back(stored[rng.index(stored.size())]);
    for (int i = 0; i < 60; ++i) {
        NearQuery q = stored[rng.index(stored.size())];
        const int d = static_cast<int>(
            rng.index(static_cast<size_t>(q.wl.numDims())));
        q.wl = rescaled(q.wl, d, pick(rng, {2, 3, 7}), pick(rng, {1, 2}));
        queries.push_back(q);
    }
    for (int i = 0; i < 30; ++i)
        queries.push_back(randomQuery(randomWorkload(rng)));
    NearQuery dw = randomQuery(makeDepthwiseConv2d("dw", 1, 32, 14, 14,
                                                   3, 3));
    queries.push_back(dw);
    NearQuery foreign = stored.front();
    foreign.arch = &arch_unseen;
    queries.push_back(foreign);

    const PhaseCounts c =
        expectMatchesScan(store, queries, "recordIfBetter");
    ASSERT_FALSE(HasFailure());
    EXPECT_GT(c.exact, 0u);
    EXPECT_GT(c.near, 0u);
    EXPECT_GT(c.miss, 0u);
    EXPECT_GE(c.tied_near, 30u);

    for (int i = 0; i < 300; ++i) {
        // New keys and improvements arriving by replication.
        const NearQuery q = rng.chance(0.5)
            ? randomQuery(randomWorkload(rng))
            : stored[rng.index(stored.size())];
        store.mergeEntry(entryOf(q, rng.uniformReal(0.1, 1e3)));
        stored.push_back(q);
        if (i % 10 == 0)
            queries.push_back(q);
    }
    expectMatchesScan(store, queries, "mergeEntry");
    ASSERT_FALSE(HasFailure());

    ASSERT_TRUE(store.compact());
    expectMatchesScan(store, queries, "compact");
    ASSERT_FALSE(HasFailure());

    const size_t live = store.size();
    EXPECT_EQ(store.load(), live);
    expectMatchesScan(store, queries, "load");
    ASSERT_FALSE(HasFailure());

    // A crash mid-append: the last record is cut in half.
    for (int i = 0; i < 5; ++i)
        record(randomQuery(randomWorkload(rng)), rng.uniformReal(1, 1e3));
    const std::string text = slurp(path);
    const size_t last_line = text.rfind('\n', text.size() - 2) + 1;
    spit(torn_path,
         text.substr(0, last_line + (text.size() - last_line) / 2));
    MappingStore torn(torn_path);
    EXPECT_EQ(torn.malformedLines(), 1u);
    expectMatchesScan(torn, queries, "torn tail");
    ASSERT_FALSE(HasFailure());

    {
        // Degraded: appends fail, in-memory updates continue.
        std::string err;
        ASSERT_TRUE(FaultInjector::global().configure(
            "store.append:every:1:ENOSPC", &err))
            << err;
        for (int i = 0; i < 200; ++i) {
            const NearQuery q = rng.chance(0.5)
                ? randomQuery(randomWorkload(rng))
                : stored[rng.index(stored.size())];
            record(q, rng.uniformReal(0.1, 1e3));
            if (i % 10 == 0)
                queries.push_back(q);
        }
        FaultInjector::global().clear();
        ASSERT_TRUE(store.degraded());
    }
    ASSERT_TRUE(store.tryRecover());
    expectMatchesScan(store, queries, "tryRecover");
    ASSERT_FALSE(HasFailure());
    MappingStore reread(path);
    EXPECT_EQ(reread.size(), store.size());
    expectMatchesScan(reread, queries, "reload after tryRecover");

    std::remove(path.c_str());
    std::remove(torn_path.c_str());
}

} // namespace
} // namespace mse
