#include <gtest/gtest.h>

#include "mapping/map_space.hpp"
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

INSTANTIATE_TEST_SUITE_P(Spaces, RandomMappingP, ::testing::Range(0, 5));

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
