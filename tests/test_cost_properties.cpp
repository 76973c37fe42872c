/**
 * @file
 * Cross-architecture property sweep for the cost model: invariants that
 * must hold for every (workload, architecture, mapping) triple.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "core/mse_engine.hpp"
#include "mappers/gamma.hpp"
#include "model/cost_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

struct Combo
{
    const char *name;
    Workload wl;
    ArchConfig arch;
};

std::vector<Combo>
combos()
{
    return {
        {"conv4/accelA", resnetConv4(), accelA()},
        {"conv4/accelB", resnetConv4(), accelB()},
        {"conv3/deep", resnetConv3(),
         makeDeepNpu("deep", 64 * 1024, 2048, 64, 64, 4)},
        {"kqv/accelB", bertKqv(), accelB()},
        {"dw/accelB", makeDepthwiseConv2d("dw", 4, 32, 14, 14, 3, 3),
         accelB()},
        {"attn/mini", bertAttn(), test::miniNpu()},
        {"tiny/flat", test::tinyConv(), test::flatArch()},
    };
}

class CostPropertyP : public ::testing::TestWithParam<int>
{
  protected:
    Combo combo_ = combos()[static_cast<size_t>(GetParam())];
};

TEST_P(CostPropertyP, EnergyAndLatencyArePositiveAndFinite)
{
    MapSpace space(combo_.wl, combo_.arch);
    Rng rng(100 + GetParam());
    for (int i = 0; i < 60; ++i) {
        const CostResult r = CostModel::evaluate(
            combo_.wl, combo_.arch, space.randomMapping(rng));
        ASSERT_TRUE(r.valid) << combo_.name;
        EXPECT_GT(r.energy_uj, 0.0);
        EXPECT_GT(r.latency_cycles, 0.0);
        EXPECT_TRUE(std::isfinite(r.edp));
    }
}

TEST_P(CostPropertyP, LatencyIsRooflineBound)
{
    MapSpace space(combo_.wl, combo_.arch);
    Rng rng(200 + GetParam());
    for (int i = 0; i < 60; ++i) {
        const CostResult r = CostModel::evaluate(
            combo_.wl, combo_.arch, space.randomMapping(rng));
        ASSERT_TRUE(r.valid);
        double bound = r.compute_cycles;
        for (double c : r.level_cycles)
            bound = std::max(bound, c);
        EXPECT_DOUBLE_EQ(r.latency_cycles, bound) << combo_.name;
    }
}

TEST_P(CostPropertyP, EnergyNeverBelowCompulsoryTraffic)
{
    // Lower bound: every tensor crosses DRAM once + all MACs happen.
    const auto &wl = combo_.wl;
    const auto &arch = combo_.arch;
    double floor_pj = wl.totalMacs() * arch.mac_energy_pj;
    const auto &dram = arch.levels.back();
    for (int t = 0; t < wl.numTensors(); ++t) {
        floor_pj += wl.tensorVolume(t) *
            (t == wl.outputTensor() ? dram.write_energy_pj
                                    : dram.read_energy_pj);
    }
    MapSpace space(wl, arch);
    Rng rng(300 + GetParam());
    for (int i = 0; i < 40; ++i) {
        const CostResult r =
            CostModel::evaluate(wl, arch, space.randomMapping(rng));
        ASSERT_TRUE(r.valid);
        EXPECT_GE(r.energy_uj, 0.999 * floor_pj * 1e-6) << combo_.name;
    }
}

TEST_P(CostPropertyP, ComputeCyclesMatchSpatialProducts)
{
    MapSpace space(combo_.wl, combo_.arch);
    Rng rng(400 + GetParam());
    for (int i = 0; i < 40; ++i) {
        const Mapping m = space.randomMapping(rng);
        const CostResult r =
            CostModel::evaluate(combo_.wl, combo_.arch, m);
        ASSERT_TRUE(r.valid);
        double alus = 1;
        for (int l = 0; l < m.numLevels(); ++l)
            alus *= static_cast<double>(m.spatialProduct(l));
        EXPECT_NEAR(r.compute_cycles, combo_.wl.totalMacs() / alus,
                    1e-6 * r.compute_cycles);
    }
}

TEST_P(CostPropertyP, MovingLoopsDownNeverChangesMacCount)
{
    MapSpace space(combo_.wl, combo_.arch);
    Rng rng(500 + GetParam());
    const Mapping a = space.randomMapping(rng);
    const Mapping b = space.randomMapping(rng);
    const AccessCounts ca =
        computeAccessCounts(combo_.wl, combo_.arch, a);
    const AccessCounts cb =
        computeAccessCounts(combo_.wl, combo_.arch, b);
    EXPECT_DOUBLE_EQ(ca.macs, cb.macs);
    EXPECT_DOUBLE_EQ(ca.macs, combo_.wl.totalMacs());
}

TEST_P(CostPropertyP, ScalingAWorkloadDimNeverDecreasesEnergy)
{
    // Doubling one dimension bound (and absorbing the growth into the
    // outermost temporal loop, which leaves every inner tile footprint
    // and all spatial products unchanged) doubles the MAC count and can
    // only add traffic — total energy must not go down.
    const Workload &wl = combo_.wl;
    MapSpace space(wl, combo_.arch);
    Rng rng(600 + GetParam());
    for (int d = 0; d < wl.numDims(); ++d) {
        std::vector<int64_t> bounds = wl.bounds();
        bounds[d] *= 2;
        const Workload scaled("scaled", wl.dimNames(), bounds,
                              wl.tensors());

        const Mapping m = space.randomMapping(rng);
        Mapping m2 = m;
        m2.level(m2.numLevels() - 1).temporal[d] *= 2;
        ASSERT_EQ(validateMapping(scaled, combo_.arch, m2),
                  MappingError::Ok)
            << combo_.name << " dim " << d;

        const CostResult base =
            CostModel::evaluate(wl, combo_.arch, m);
        const CostResult grown =
            CostModel::evaluate(scaled, combo_.arch, m2);
        ASSERT_TRUE(base.valid && grown.valid);
        EXPECT_GE(grown.energy_uj, base.energy_uj)
            << combo_.name << " dim " << d;
    }
}

TEST_P(CostPropertyP, CanonicallyEquivalentMappingsEvaluateIdentically)
{
    // The eval cache treats two rewrites as identity: permuting loops
    // inside a run of temporal-factor-1 positions, and spelling the
    // default keep-everything mask explicitly. Both must be invisible
    // to the cost model bit-for-bit, or cache hits would change costs.
    MapSpace space(combo_.wl, combo_.arch);
    Rng rng(700 + GetParam());
    const int tensors = combo_.wl.numTensors();
    for (int i = 0; i < 30; ++i) {
        const Mapping m = space.randomMapping(rng);
        Mapping variant = m;
        for (int l = 0; l < variant.numLevels(); ++l) {
            auto &lvl = variant.level(l);
            // Reverse every maximal run of unit-temporal loops.
            size_t a = 0;
            while (a < lvl.order.size()) {
                size_t b = a;
                while (b < lvl.order.size() &&
                       lvl.temporal[lvl.order[b]] == 1)
                    ++b;
                if (b > a)
                    std::reverse(lvl.order.begin() + a,
                                 lvl.order.begin() + b);
                a = std::max(b, a + 1);
            }
            if (lvl.keep.empty())
                lvl.keep.assign(static_cast<size_t>(tensors), 1);
        }
        ASSERT_TRUE(variant == m) << combo_.name;

        const CostResult ra =
            CostModel::evaluate(combo_.wl, combo_.arch, m);
        const CostResult rb =
            CostModel::evaluate(combo_.wl, combo_.arch, variant);
        ASSERT_EQ(ra.valid, rb.valid);
        EXPECT_EQ(ra.energy_uj, rb.energy_uj) << combo_.name;
        EXPECT_EQ(ra.latency_cycles, rb.latency_cycles) << combo_.name;
        EXPECT_EQ(ra.edp, rb.edp) << combo_.name;
    }
}

TEST_P(CostPropertyP, EngineAndScalarOracleShareTheIncumbent)
{
    // The engine's planned batch path must be invisible to the search:
    // same seed, engine vs. a scalar CostModel::evaluate oracle at 1
    // and 4 pool lanes, identical incumbent and per-sample trace.
    MseOptions opts;
    opts.budget.max_samples = 300;
    const auto search = [&](bool oracle, unsigned threads) {
        ThreadPool::setGlobalThreads(threads);
        MseEngine engine(combo_.arch);
        GammaMapper gamma;
        Rng rng(800 + GetParam());
        if (!oracle)
            return engine.optimize(combo_.wl, gamma, opts, rng);
        const EvalFn eval = [&](const Mapping &m) {
            return CostModel::evaluate(combo_.wl, combo_.arch, m);
        };
        return engine.optimizeWithEvaluator(
            MapSpace(combo_.wl, combo_.arch), eval, gamma, opts, rng);
    };
    const MseOutcome b = search(true, 1);
    for (const unsigned threads : {1u, 4u}) {
        const MseOutcome a = search(false, threads);
        EXPECT_EQ(a.search.best_cost.edp, b.search.best_cost.edp)
            << combo_.name << " threads=" << threads;
        EXPECT_TRUE(a.search.best_mapping == b.search.best_mapping)
            << combo_.name << " threads=" << threads;
        EXPECT_EQ(a.search.log.best_edp_per_sample,
                  b.search.log.best_edp_per_sample)
            << combo_.name << " threads=" << threads;
    }
    ThreadPool::setGlobalThreads(0);
}

INSTANTIATE_TEST_SUITE_P(Combos, CostPropertyP,
                         ::testing::Range(0, 7));

} // namespace
} // namespace mse
