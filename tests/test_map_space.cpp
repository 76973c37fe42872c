#include <gtest/gtest.h>

#include <algorithm>

#include "common/math_util.hpp"
#include "common/permutation.hpp"
#include "mapping/map_space.hpp"
#include "mapping/mapping_io.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

struct SpaceCase
{
    const char *name;
    Workload workload;
    ArchConfig arch;
};

class RandomMappingP : public ::testing::TestWithParam<int>
{
  protected:
    static std::vector<SpaceCase>
    cases()
    {
        return {
            {"conv4-accelB", resnetConv4(), accelB()},
            {"conv3-accelA", resnetConv3(), accelA()},
            {"kqv-accelB", bertKqv(), accelB()},
            {"tinyconv-mini", test::tinyConv(), test::miniNpu()},
            {"dw-accelB",
             makeDepthwiseConv2d("dw", 4, 32, 14, 14, 3, 3), accelB()},
        };
    }
};

TEST_P(RandomMappingP, AlwaysLegal)
{
    const auto c = cases()[static_cast<size_t>(GetParam())];
    MapSpace space(c.workload, c.arch);
    Rng rng(100 + GetParam());
    for (int i = 0; i < 200; ++i) {
        const Mapping m = space.randomMapping(rng);
        ASSERT_EQ(validateMapping(c.workload, c.arch, m), MappingError::Ok)
            << c.name << " sample " << i << "\n"
            << m.toString(c.workload);
    }
}

TEST_P(RandomMappingP, ProducesDiverseMappings)
{
    const auto c = cases()[static_cast<size_t>(GetParam())];
    MapSpace space(c.workload, c.arch);
    Rng rng(7);
    std::set<std::string> keys;
    for (int i = 0; i < 50; ++i)
        keys.insert(space.randomMapping(rng).canonicalKey());
    EXPECT_GT(keys.size(), 40u) << c.name;
}

// ---- Oracle: the straightforward repair the cached one replaces ----

int64_t
oracleSmallestPrime(int64_t n)
{
    for (int64_t p = 2; p * p <= n; ++p) {
        if (n % p == 0)
            return p;
    }
    return n;
}

/** repairFanout then repairCapacity, recomputing every footprint. */
void
oracleRepair(const Workload &wl, const ArchConfig &arch, Mapping &m)
{
    const int L = arch.numLevels();
    const int D = wl.numDims();
    for (int l = 0; l < L; ++l) {
        while (m.spatialProduct(l) > arch.levels[l].fanout) {
            int best = -1;
            for (int d = 0; d < D; ++d) {
                if (m.level(l).spatial[d] > 1 &&
                    (best < 0 ||
                     m.level(l).spatial[d] > m.level(l).spatial[best]))
                    best = d;
            }
            const int64_t p = oracleSmallestPrime(m.level(l).spatial[best]);
            m.level(l).spatial[best] /= p;
            m.level(l).temporal[best] *= p;
        }
    }
    const auto resident = [&](int l) {
        double sum = 0.0;
        for (int t = 0; t < wl.numTensors(); ++t) {
            if (m.keeps(l, t))
                sum += tileFootprint(wl, m, t, l) * wl.tensor(t).density;
        }
        return sum;
    };
    for (int l = 0; l < L - 1; ++l) {
        const int64_t cap = arch.levels[l].capacity_words;
        if (cap <= 0)
            continue;
        while (resident(l) > static_cast<double>(cap)) {
            int best_dim = -1;
            int64_t best_cum = 1;
            for (int d = 0; d < D; ++d) {
                if (m.cumulativeFactor(l, d) > best_cum) {
                    best_cum = m.cumulativeFactor(l, d);
                    best_dim = d;
                }
            }
            if (best_dim < 0)
                break;
            int64_t *slot = nullptr;
            for (int ll = l; ll >= 0 && !slot; --ll) {
                if (m.level(ll).temporal[best_dim] > 1)
                    slot = &m.level(ll).temporal[best_dim];
                else if (m.level(ll).spatial[best_dim] > 1)
                    slot = &m.level(ll).spatial[best_dim];
            }
            const int64_t p = oracleSmallestPrime(*slot);
            *slot /= p;
            m.level(l + 1).temporal[best_dim] *= p;
        }
    }
}

/** randomMapping's draws through divisorsOf and the oracle repair. */
Mapping
oracleRandomMapping(const MapSpace &space, Rng &rng)
{
    const int L = space.numLevels();
    const int D = space.numDims();
    const auto &spatial = space.spatialLevels();
    Mapping m(L, D);
    const int slots = L + static_cast<int>(spatial.size());
    const auto slot = [&](int i, int d) -> int64_t & {
        return i < L ? m.level(i).temporal[d]
                     : m.level(spatial[i - L]).spatial[d];
    };
    for (int d = 0; d < D; ++d) {
        int64_t rem = space.workload().bound(d);
        for (int i = 0; i < slots - 1; ++i) {
            const std::vector<int64_t> divs = divisorsOf(rem);
            slot(i, d) = divs[rng.index(divs.size())];
            rem /= slot(i, d);
        }
        slot(slots - 1, d) = rem;
    }
    for (int l = 0; l < L; ++l)
        randomPermutationInto(m.level(l).order.data(), D, rng);
    oracleRepair(space.workload(), space.arch(), m);
    return m;
}

/**
 * A factor-legal but unrepaired mapping: every temporal and spatial slot
 * drawn (spatial products may exceed fanouts), random orders, and random
 * keep masks below DRAM.
 */
Mapping
unrepairedMapping(const Workload &wl, const ArchConfig &arch, Rng &rng)
{
    const int L = arch.numLevels();
    const int D = wl.numDims();
    Mapping m(L, D);
    for (int d = 0; d < D; ++d) {
        int64_t rem = wl.bound(d);
        for (int l = 0; l < L; ++l) {
            for (const bool spatial : {true, false}) {
                if (spatial && l == L - 1)
                    continue;
                const std::vector<int64_t> divs = divisorsOf(rem);
                const int64_t f = l == L - 1 ? rem : rng.pick(divs);
                (spatial ? m.level(l).spatial : m.level(l).temporal)[d] = f;
                rem /= f;
            }
        }
    }
    for (int l = 0; l < L; ++l) {
        randomPermutationInto(m.level(l).order.data(), D, rng);
        if (l < L - 1 && rng.chance(0.3)) {
            for (int t = 0; t < wl.numTensors(); ++t)
                m.setKeep(l, t, rng.chance(0.6), wl.numTensors());
        }
    }
    return m;
}

TEST_P(RandomMappingP, RandomMappingMatchesOracleDraws)
{
    auto c = cases()[static_cast<size_t>(GetParam())];
    for (const bool sparse : {false, true}) {
        if (sparse)
            applyDensities(c.workload, 0.1, 0.5);
        MapSpace space(c.workload, c.arch);
        Rng ours(500 + GetParam()), ref(500 + GetParam());
        for (int i = 0; i < 500; ++i) {
            const Mapping got = space.randomMapping(ours);
            const Mapping want = oracleRandomMapping(space, ref);
            ASSERT_EQ(serializeMapping(got), serializeMapping(want))
                << c.name << (sparse ? " sparse" : "") << " sample " << i;
        }
    }
}

TEST_P(RandomMappingP, RepairMatchesOracleOnUnrepairedMappings)
{
    auto c = cases()[static_cast<size_t>(GetParam())];
    for (const bool sparse : {false, true}) {
        if (sparse)
            applyDensities(c.workload, 0.1, 0.5);
        MapSpace space(c.workload, c.arch);
        Rng rng(900 + GetParam());
        for (int i = 0; i < 500; ++i) {
            Mapping got = unrepairedMapping(c.workload, c.arch, rng);
            Mapping want = got;
            space.repair(got);
            oracleRepair(c.workload, c.arch, want);
            ASSERT_EQ(serializeMapping(got), serializeMapping(want))
                << c.name << (sparse ? " sparse" : "") << " sample " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Spaces, RandomMappingP, ::testing::Range(0, 5));

TEST(MapSpaceDivisors, MatchDivisorsOfInsideAndOutsideTheClosure)
{
    // conv4's bounds are 16,256,256,14,14,3,3: values up to 300 cover
    // closure members, non-members below the largest bound, and primes.
    MapSpace space(resnetConv4(), accelB());
    for (int64_t n = 1; n <= 300; ++n) {
        const auto divs = space.divisors(n);
        EXPECT_EQ(std::vector<int64_t>(divs.begin(), divs.end()),
                  divisorsOf(n))
            << n;
    }
    const auto big = space.divisors(10007 * 6);
    EXPECT_EQ(std::vector<int64_t>(big.begin(), big.end()),
              divisorsOf(10007 * 6));

    // A closure of 240 values (720720's divisors) fills a larger index
    // table, so lookups probe past collisions.
    MapSpace composite(makeGemm("gemm", 1, 720720, 64, 64), accelB());
    for (int64_t n = 1; n <= 5000; ++n) {
        const int64_t v = n % 2 ? n : 720720 / n;
        const auto divs = composite.divisors(v);
        EXPECT_EQ(std::vector<int64_t>(divs.begin(), divs.end()),
                  divisorsOf(v))
            << v;
    }
}

TEST(RepairCapacity, OutOfClosureFactorsStillRepair)
{
    // Factors that divide no bound (a foreign mapping) take the
    // smallest-prime fallback; the result matches the oracle.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = 35;
    Mapping want = m;
    space.repair(m);
    oracleRepair(wl, arch, want);
    EXPECT_EQ(serializeMapping(m), serializeMapping(want));
}

TEST(RepairFanout, FoldsExcessIntoTemporal)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(2).temporal[d] = wl.bound(d);
    // Illegally put K=256 spatial at L1 whose fanout is 4.
    m.level(2).temporal[1] = 1;
    m.level(0).spatial[1] = 256;
    space.repairFanout(m);
    EXPECT_LE(m.spatialProduct(0), arch.levels[0].fanout);
    EXPECT_EQ(m.totalFactor(1), 256); // product preserved
}

TEST(RepairCapacity, ShrinksResidentTiles)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Mapping m(arch.numLevels(), wl.numDims());
    // Whole problem resident at L1: hopelessly oversized.
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.bound(d);
    space.repairCapacity(m);
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
}

TEST(Repair, PreservesFactorProducts)
{
    const Workload wl = inceptionConv2();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        Mapping m = space.randomMapping(rng);
        // Scramble: push everything to L1.
        for (int d = 0; d < wl.numDims(); ++d) {
            const int64_t total = m.totalFactor(d);
            for (int l = 0; l < m.numLevels(); ++l) {
                m.level(l).temporal[d] = 1;
                m.level(l).spatial[d] = 1;
            }
            m.level(0).temporal[d] = total;
        }
        space.repair(m);
        ASSERT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
        for (int d = 0; d < wl.numDims(); ++d)
            EXPECT_EQ(m.totalFactor(d), wl.bound(d));
    }
}

TEST(ScaleFrom, IdenticalWorkloadKeepsMapping)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(5);
    const Mapping m = space.randomMapping(rng);
    const Mapping scaled = space.scaleFrom(m, wl, rng);
    EXPECT_EQ(validateMapping(wl, arch, scaled), MappingError::Ok);
    // Orders inherited verbatim.
    for (int l = 0; l < m.numLevels(); ++l)
        EXPECT_EQ(scaled.level(l).order, m.level(l).order);
}

TEST(ScaleFrom, AdaptsToScaledBounds)
{
    // conv3 (K=C=128, Y=X=28) -> conv4 (K=C=256, Y=X=14).
    const Workload src = resnetConv3();
    const Workload dst = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace src_space(src, arch);
    MapSpace dst_space(dst, arch);
    Rng rng(9);
    for (int i = 0; i < 20; ++i) {
        const Mapping m = src_space.randomMapping(rng);
        const Mapping scaled = dst_space.scaleFrom(m, src, rng);
        ASSERT_EQ(validateMapping(dst, arch, scaled), MappingError::Ok);
    }
}

TEST(ScaleFrom, IncompatibleDimsFallsBackToRandom)
{
    const Workload gemm = bertKqv();
    const Workload conv = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace conv_space(conv, arch);
    MapSpace gemm_space(gemm, arch);
    Rng rng(2);
    const Mapping m = gemm_space.randomMapping(rng);
    const Mapping scaled = conv_space.scaleFrom(m, gemm, rng);
    EXPECT_EQ(validateMapping(conv, arch, scaled), MappingError::Ok);
}

TEST(ScaleFrom, LevelCountMismatchFallsBackToRandomMapping)
{
    // Store and replicated records are decoded without checking the
    // mapping's level count against any architecture, so a warm start
    // can hand scaleFrom a mapping with fewer levels than this space.
    // It must not read past that mapping; it draws a random one.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(9);
    const Mapping shallow(1, wl.numDims());
    const Mapping scaled = space.scaleFrom(shallow, wl, rng);
    EXPECT_EQ(scaled.numLevels(), arch.numLevels());
    EXPECT_EQ(validateMapping(wl, arch, scaled), MappingError::Ok);
}

TEST(MapSpaceSize, MatchesPaperOrderOfMagnitude)
{
    // Sec. 4.2: O(10^21)-O(10^24) for the Table-1 CONV workloads on a
    // 3-level hierarchy.
    MapSpace space(resnetConv4(), accelB());
    const auto sz = space.size();
    EXPECT_GT(sz.log10_total, 18.0);
    EXPECT_LT(sz.log10_total, 26.0);
    EXPECT_NEAR(sz.log10_total,
                sz.log10_tile + sz.log10_order + sz.log10_parallel, 1e-9);
}

TEST(MapSpaceSize, OrderSubspaceIsFactorialPerLevel)
{
    MapSpace space(resnetConv4(), accelB());
    // (7!)^3 = 5040^3 -> log10 = 3 * log10(5040).
    EXPECT_NEAR(space.size().log10_order, 3.0 * std::log10(5040.0), 1e-9);
}

TEST(MapSpaceSize, GrowsWithWorkload)
{
    MapSpace small(test::tinyGemm(), accelB());
    MapSpace big(bertKqv(), accelB());
    EXPECT_GT(big.size().log10_total, small.size().log10_total);
}

} // namespace
} // namespace mse
