#include <gtest/gtest.h>

#include "mappers/gamma.hpp"
#include "model/cost_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

using test::allAtTop;
using test::flatArch;
using test::tinyGemm;

TEST(Bypass, DefaultIsKeepEverywhere)
{
    const Mapping m(3, 4);
    for (int l = 0; l < 3; ++l)
        for (int t = 0; t < 5; ++t)
            EXPECT_TRUE(m.keeps(l, t));
}

TEST(Bypass, SetKeepRoundTrip)
{
    Mapping m(3, 4);
    m.setKeep(1, 0, false, 3);
    EXPECT_FALSE(m.keeps(1, 0));
    EXPECT_TRUE(m.keeps(1, 1));
    EXPECT_TRUE(m.keeps(0, 0));
    m.setKeep(1, 0, true, 3);
    EXPECT_TRUE(m.keeps(1, 0));
}

TEST(Bypass, DramMustKeepEverything)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.setKeep(arch.numLevels() - 1, 0, false, wl.numTensors());
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::BadShape);
}

TEST(Bypass, WrongMaskWidthRejected)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.setKeepMask(0, {1, 1}); // workload has 3 tensors
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::BadShape);
}

TEST(Bypass, BypassedTensorFreesCapacity)
{
    // A mapping whose weights tile overflows L1 becomes legal once
    // weights bypass L1.
    const Workload wl = makeGemm("g", 1, 4, 64, 4);
    const ArchConfig arch = test::flatArch(/*l1_words=*/128);
    Mapping m(arch.numLevels(), wl.numDims());
    // Hold the whole problem in L1: A=256, W=256, O=16 words > 128.
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(0).temporal[d] = wl.bound(d);
    ASSERT_EQ(validateMapping(wl, arch, m),
              MappingError::CapacityExceeded);
    m.setKeep(0, 0, false, wl.numTensors()); // bypass A
    m.setKeep(0, 1, false, wl.numTensors()); // bypass W
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
}

TEST(Bypass, TrafficReroutesAroundBypassedLevel)
{
    // With weights bypassing L1 in a 2-level machine, L1 sees no weight
    // traffic and the DRAM-side weight reads are unchanged (the fanout
    // between the kept levels is 1).
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping kept = allAtTop(wl, arch);
    Mapping bypassed = kept;
    bypassed.setKeep(0, 1, false, wl.numTensors()); // weights skip L1

    const AccessCounts a = computeAccessCounts(wl, arch, kept);
    const AccessCounts b = computeAccessCounts(wl, arch, bypassed);
    const int W = 1;
    EXPECT_GT(a.access[0][W].reads, 0.0);
    EXPECT_DOUBLE_EQ(b.access[0][W].reads, 0.0);
    EXPECT_DOUBLE_EQ(b.access[0][W].writes, 0.0);
    EXPECT_DOUBLE_EQ(b.access[1][W].reads, a.access[1][W].reads);
}

TEST(Bypass, SkippingAnInnerLevelLosesItsReuse)
{
    // Bypassing L2 for a tensor exposes the DRAM to the L1-level
    // refetch pattern: DRAM reads can only grow.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        Mapping kept = space.randomMapping(rng);
        Mapping byp = kept;
        byp.setKeep(1, 0, false, wl.numTensors()); // weights skip L2
        if (validateMapping(wl, arch, byp) != MappingError::Ok)
            continue;
        const AccessCounts a = computeAccessCounts(wl, arch, kept);
        const AccessCounts b = computeAccessCounts(wl, arch, byp);
        const int dram = arch.numLevels() - 1;
        EXPECT_GE(b.access[dram][0].reads,
                  a.access[dram][0].reads * (1 - 1e-9));
    }
}

TEST(Bypass, FullyBypassedTensorStreamsFromDram)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping m = allAtTop(wl, arch);
    m.setKeep(0, 0, false, wl.numTensors()); // A only in DRAM
    ASSERT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
    const AccessCounts c = computeAccessCounts(wl, arch, m);
    // A's reads all hit DRAM; no on-chip traffic at all.
    EXPECT_DOUBLE_EQ(c.access[0][0].reads, 0.0);
    EXPECT_GT(c.access[1][0].reads, 0.0);
}

TEST(Bypass, CanonicalKeyDistinguishesBypass)
{
    const Workload wl = tinyGemm();
    const ArchConfig arch = flatArch();
    Mapping a = allAtTop(wl, arch);
    Mapping b = a;
    b.setKeep(0, 1, false, wl.numTensors());
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

TEST(Bypass, MutateBypassProducesValidatableMappings)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        Mapping m = space.randomMapping(rng);
        GammaMapper::mutateBypass(space, m, rng);
        space.repair(m);
        const MappingError err = validateMapping(wl, arch, m);
        // Bypass can only relax capacity; every repaired mutant must be
        // fully legal.
        ASSERT_EQ(err, MappingError::Ok) << m.toString(wl);
    }
}

TEST(Bypass, CrossoverInheritsKeepWithOrder)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(11);
    Mapping a = space.randomMapping(rng);
    Mapping b = space.randomMapping(rng);
    b.setKeep(0, 0, false, wl.numTensors());
    bool saw_inherited = false;
    for (int i = 0; i < 50 && !saw_inherited; ++i) {
        const Mapping child = GammaMapper::crossover(a, b, rng);
        if (!child.keeps(0, 0)) {
            saw_inherited = true;
            EXPECT_EQ(child.level(0).order, b.level(0).order);
        }
    }
    EXPECT_TRUE(saw_inherited);
}

TEST(Bypass, ScaleFromInheritsBypass)
{
    const Workload src = resnetConv3();
    const Workload dst = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace src_space(src, arch), dst_space(dst, arch);
    Rng rng(13);
    Mapping m = src_space.randomMapping(rng);
    m.setKeep(1, 2, false, src.numTensors());
    const Mapping scaled = dst_space.scaleFrom(m, src, rng);
    EXPECT_FALSE(scaled.keeps(1, 2));
}

TEST(Bypass, GammaWithBypassStillFindsLegalBest)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    GammaConfig cfg;
    cfg.mutate_bypass_prob = 0.5; // stress the operator
    GammaMapper gamma(cfg);
    SearchBudget budget;
    budget.max_samples = 800;
    Rng rng(17);
    const SearchResult r = gamma.search(space, eval, budget, rng);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(validateMapping(wl, arch, r.best_mapping), MappingError::Ok);
}

TEST(Bypass, ToStringShowsBypassedTensors)
{
    const Workload wl = tinyGemm();
    Mapping m(2, wl.numDims());
    m.setKeep(0, 1, false, wl.numTensors());
    const std::string s = m.toString(wl);
    EXPECT_NE(s.find("bypass=[Weights]"), std::string::npos);
}

} // namespace
} // namespace mse
