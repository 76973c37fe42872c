#include <gtest/gtest.h>

#include <algorithm>

#include "mappers/gamma.hpp"
#include "model/analysis.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

using test::flatArch;
using test::tinyGemm;

/** GEMM mapping with a chosen innermost loop at L1. */
Mapping
gemmWithInnermost(const Workload &wl, const ArchConfig &arch,
                  const std::string &inner_dim)
{
    Mapping m(arch.numLevels(), wl.numDims());
    // Split every dim between L1 and DRAM so each level has real loops.
    for (int d = 0; d < wl.numDims(); ++d) {
        const int64_t b = wl.bound(d);
        const int64_t inner = b % 2 == 0 ? 2 : 1;
        m.level(0).temporal[d] = inner;
        m.level(arch.numLevels() - 1).temporal[d] = b / inner;
    }
    // Rotate the chosen dim to the innermost position at L1.
    const auto order = m.level(0).order;
    const auto it =
        std::find(order.begin(), order.end(), wl.dimIndex(inner_dim));
    std::rotate(it, it + 1, order.end());
    return m;
}

TEST(Stationarity, ReductionInnermostIsOutputStationary)
{
    // K innermost: the output element is held across the dot product.
    const Workload wl = makeGemm("g", 1, 8, 8, 8);
    const ArchConfig arch = flatArch();
    const Mapping m = gemmWithInnermost(wl, arch, "K");
    EXPECT_DOUBLE_EQ(reuseFactor(wl, m, wl.outputTensor(), 0), 2.0);
    EXPECT_EQ(classifyStationarity(wl, m), Stationarity::Output);
}

TEST(Stationarity, NInnermostIsInputStationary)
{
    // N is irrelevant to A (Inputs): A is held while N sweeps.
    const Workload wl = makeGemm("g", 1, 8, 8, 8);
    const ArchConfig arch = flatArch();
    const Mapping m = gemmWithInnermost(wl, arch, "N");
    EXPECT_EQ(classifyStationarity(wl, m), Stationarity::Input);
}

TEST(Stationarity, MInnermostIsWeightStationary)
{
    // M is irrelevant to W: weights are held while M sweeps.
    const Workload wl = makeGemm("g", 1, 8, 8, 8);
    const ArchConfig arch = flatArch();
    const Mapping m = gemmWithInnermost(wl, arch, "M");
    EXPECT_EQ(classifyStationarity(wl, m), Stationarity::Weight);
}

TEST(Stationarity, AllUnitLoopsHaveNoStationarity)
{
    const Workload wl = tinyGemm();
    Mapping m(2, wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(1).temporal[d] = wl.bound(d);
    // L1 has no non-unit loops at all.
    EXPECT_EQ(classifyStationarity(wl, m), Stationarity::None);
}

TEST(Stationarity, NamesAreHuman)
{
    EXPECT_STREQ(stationarityName(Stationarity::Weight),
                 "weight-stationary");
    EXPECT_STREQ(stationarityName(Stationarity::None),
                 "no-stationarity");
}

TEST(ReuseFactor, MultipliesConsecutiveIrrelevantLoops)
{
    // Two irrelevant loops inside the innermost relevant one compound.
    const Workload wl = makeGemm("g", 4, 4, 4, 4);
    const ArchConfig arch = flatArch();
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.bound(d);
    // Order at L1: K, M, B, N -> for W[K,N]: after N (relevant,
    // innermost) nothing; reorder so irrelevant B,M are innermost:
    m.level(0).order = {wl.dimIndex("K"), wl.dimIndex("N"),
                        wl.dimIndex("B"), wl.dimIndex("M")};
    // W irrelevant to B and M: reuse = 4 * 4.
    EXPECT_DOUBLE_EQ(reuseFactor(wl, m, 1, 0), 16.0);
}

TEST(ArithmeticIntensity, BoundedByIdealReuse)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(5);
    // Ideal intensity: every word moves exactly once.
    double min_words = 0;
    for (int t = 0; t < wl.numTensors(); ++t)
        min_words += wl.tensorVolume(t);
    const double ideal = wl.totalMacs() / min_words;
    for (int i = 0; i < 30; ++i) {
        const double ai =
            arithmeticIntensity(wl, arch, space.randomMapping(rng));
        EXPECT_GT(ai, 0.0);
        EXPECT_LE(ai, ideal * 1.001);
    }
}

TEST(ArithmeticIntensity, OptimizedMappingsBeatRandomOnes)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(6);
    // Mean over random mappings...
    double random_ai = 0;
    for (int i = 0; i < 20; ++i) {
        random_ai +=
            arithmeticIntensity(wl, arch, space.randomMapping(rng)) / 20;
    }
    // ...vs a mapping optimized for EDP (which correlates with reuse).
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    GammaMapper gamma;
    SearchBudget budget;
    budget.max_samples = 1500;
    const SearchResult r = gamma.search(space, eval, budget, rng);
    EXPECT_GT(arithmeticIntensity(wl, arch, r.best_mapping), random_ai);
}

} // namespace
} // namespace mse
