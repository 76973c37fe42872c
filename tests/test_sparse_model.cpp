#include <gtest/gtest.h>

#include <cmath>

#include "model/eval_plan.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

Mapping
someLegalMapping(const Workload &wl, const ArchConfig &arch, uint64_t seed)
{
    MapSpace space(wl, arch);
    Rng rng(seed);
    return space.randomMapping(rng);
}

/** GEMM with K=1: no reduction loops at all. */
Workload
tinyGemmNoReduction()
{
    return makeGemm("g1", 1, 4, 1, 4);
}

TEST(ApplyDensities, SetsWeightsInputsAndDerivedOutputs)
{
    Workload wl = resnetConv4();
    applyDensities(wl, 0.5, 0.8);
    EXPECT_DOUBLE_EQ(wl.density("Weights"), 0.5);
    EXPECT_DOUBLE_EQ(wl.density("Inputs"), 0.8);
    // Large reduction (C*R*S = 2304): outputs effectively dense.
    EXPECT_NEAR(wl.density("Outputs"), 1.0, 1e-6);
}

TEST(ApplyDensities, TinyReductionKeepsOutputsSparse)
{
    Workload wl = makeGemm("g", 1, 4, 1, 4); // reduction size 1
    applyDensities(wl, 0.1, 0.1);
    EXPECT_NEAR(wl.density("Outputs"), 0.01, 1e-9);
}

TEST(ReductionInnerness, FixedOrdersHitExtremes)
{
    const Workload wl = bertKqv();
    const ArchConfig arch = accelB();
    Mapping m = someLegalMapping(wl, arch, 3);
    fixOrderInnerProduct(wl, m);
    EXPECT_GT(reductionInnerness(wl, m), 0.6);
    fixOrderOuterProduct(wl, m);
    EXPECT_LT(reductionInnerness(wl, m), 0.4);
}

TEST(ReductionInnerness, NoReductionLoopsIsNeutral)
{
    const Workload wl = tinyGemmNoReduction();
    const ArchConfig arch = test::flatArch();
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(1).temporal[d] = wl.bound(d);
    EXPECT_DOUBLE_EQ(reductionInnerness(wl, m), 0.5);
}

TEST(FixOrder, PreservesPermutationValidity)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    Mapping m = someLegalMapping(wl, arch, 11);
    fixOrderInnerProduct(wl, m);
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
    fixOrderOuterProduct(wl, m);
    EXPECT_EQ(validateMapping(wl, arch, m), MappingError::Ok);
}

TEST(SparseCostModel, DenseWorkloadMatchesCompressionFreeTraffic)
{
    // With density 1.0 the traffic-side of the sparse model reduces to
    // the dense counts (compression scale = min(1, 1 * 1.06) = 1).
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    const Mapping m = someLegalMapping(wl, arch, 17);
    SparseCostModel sparse;
    const CostResult s = sparse.evaluate(wl, arch, m);
    const CostResult d = CostModel::evaluate(wl, arch, m);
    ASSERT_TRUE(s.valid && d.valid);
    // Energy differs only via compute-side overheads (intersection),
    // so it stays within a modest factor of the dense result.
    EXPECT_GT(s.energy_uj, 0.5 * d.energy_uj);
    EXPECT_LT(s.energy_uj, 3.0 * d.energy_uj);
}

// Parity settled: at density 1.0, with the three pure-overhead terms
// (metadata words, partial-output merge, intersection scans) at zero,
// the sparse post-pass is the dense model. Every CostResult field is
// bit-equal on dense-valid mappings: compression scales are exactly 1,
// the spill ratio never exceeds 1, eff_macs == macs, the imbalance
// factor is exactly 1 and the zeroed terms add +0.0. The output
// stream's rewrite writes' = min(w, (w - fin) + fin) is exact too,
// because access rows are integer-valued doubles below 2^53; beyond
// that it could land at most 1 ulp below w.
TEST(SparseCostModel, ZeroOverheadUnitDensityEqualsDenseModel)
{
    SparseAcceleratorFeatures saf;
    saf.metadata_overhead = 0.0;
    saf.merge_gamma = 0.0;
    saf.intersect_beta = 0.0;
    for (const bool skipping : {true, false}) {
        saf.skipping = skipping;
        const struct
        {
            Workload wl;
            ArchConfig arch;
        } cases[] = {{resnetConv4(), accelB()}, {bertKqv(), accelA()}};
        for (const auto &c : cases) {
            Workload wl = c.wl;
            applyDensities(wl, 1.0, 1.0);
            const EvalPlan plan = EvalPlan::build(wl, c.arch);
            SparsePlan sparse(wl, saf);
            sparse.addPass(wl);
            const MapSpace space(wl, c.arch);
            const std::vector<Mapping> pop =
                test::randomizedPopulation(space, 2000, 0x9a1);
            EvalScratch ds, ss;
            size_t checked = 0;
            for (const Mapping &m : pop) {
                CostResult dense, sp;
                evaluatePlanned(plan, m, ds, dense);
                if (!dense.valid)
                    continue;
                ++checked;
                evaluatePlannedSparse(plan, sparse, m, ss, sp);
                ASSERT_EQ(test::render(dense), test::render(sp));
                ASSERT_EQ(test::render(CostModel::evaluate(wl, c.arch, m)),
                          test::render(
                              SparseCostModel(saf).evaluate(wl, c.arch, m)));
            }
            EXPECT_GT(checked, 200u);
        }
    }
}

TEST(SparseCostModel, EdpImprovesMonotonicallyWithSparsity)
{
    const ArchConfig arch = accelB();
    const Mapping m = someLegalMapping(resnetConv4(), arch, 23);
    double prev = std::numeric_limits<double>::infinity();
    for (double density : {1.0, 0.5, 0.1, 0.01}) {
        Workload wl = resnetConv4();
        applyDensities(wl, density, 1.0);
        SparseCostModel sparse;
        const CostResult r = sparse.evaluate(wl, arch, m);
        ASSERT_TRUE(r.valid) << "density " << density;
        EXPECT_LT(r.edp, prev) << "density " << density;
        prev = r.edp;
    }
}

TEST(SparseCostModel, SkippingBeatsGatingOnLatency)
{
    Workload wl = resnetConv4();
    applyDensities(wl, 0.1, 1.0);
    const ArchConfig arch = accelB();
    const Mapping m = someLegalMapping(wl, arch, 29);

    SparseAcceleratorFeatures skip;
    skip.skipping = true;
    SparseAcceleratorFeatures gate;
    gate.skipping = false;
    gate.gating = true;

    const CostResult rs = SparseCostModel(skip).evaluate(wl, arch, m);
    const CostResult rg = SparseCostModel(gate).evaluate(wl, arch, m);
    ASSERT_TRUE(rs.valid && rg.valid);
    EXPECT_LE(rs.compute_cycles, rg.compute_cycles);
    // Gating still saves energy versus no SAF at all.
    SparseAcceleratorFeatures none;
    none.skipping = false;
    none.gating = false;
    const CostResult rn = SparseCostModel(none).evaluate(wl, arch, m);
    EXPECT_LT(rg.energy_uj, rn.energy_uj);
}

TEST(SparseCostModel, InnerOuterCrossoverDirection)
{
    // The Sec. 4.5.3 crossover, tested as a direction over many random
    // tilings: the inner/outer EDP ratio must grow as density drops —
    // inner-product mappings are ahead (geomean) when dense and lose
    // that edge at high sparsity.
    const ArchConfig arch = accelB();
    auto geomeanEdp = [&](double density, bool inner) {
        Workload wl = bertAttn();
        applyDensities(wl, density, density);
        MapSpace space(wl, arch);
        Rng rng(41);
        double log_sum = 0.0;
        const int n = 12;
        for (int i = 0; i < n; ++i) {
            Mapping m = space.randomMapping(rng);
            if (inner)
                fixOrderInnerProduct(wl, m);
            else
                fixOrderOuterProduct(wl, m);
            space.repair(m);
            const CostResult r = SparseCostModel().evaluate(wl, arch, m);
            EXPECT_TRUE(r.valid);
            log_sum += std::log10(r.edp) / n;
        }
        return std::pow(10.0, log_sum);
    };
    const double ratio_dense = geomeanEdp(1.0, true) / geomeanEdp(1.0, false);
    const double ratio_sparse =
        geomeanEdp(0.01, true) / geomeanEdp(0.01, false);
    EXPECT_LT(ratio_dense, 1.0);         // inner ahead when dense
    EXPECT_GT(ratio_sparse, ratio_dense); // outer catches up when sparse
}

TEST(SparseCostModel, TrafficShrinksWithDensity)
{
    const ArchConfig arch = accelB();
    const Mapping m = someLegalMapping(resnetConv4(), arch, 53);
    Workload dense = resnetConv4();
    Workload sparse_wl = resnetConv4();
    applyDensities(sparse_wl, 0.1, 1.0);
    SparseCostModel model;
    const CostResult rd = model.evaluate(dense, arch, m);
    const CostResult rs = model.evaluate(sparse_wl, arch, m);
    ASSERT_TRUE(rd.valid && rs.valid);
    EXPECT_LT(rs.energy_uj, rd.energy_uj);
    EXPECT_LE(rs.latency_cycles, rd.latency_cycles);
}

TEST(SparseCostModel, InvalidMappingRejected)
{
    Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    Mapping m(arch.numLevels(), wl.numDims()); // bad products
    const CostResult r = SparseCostModel().evaluate(wl, arch, m);
    EXPECT_FALSE(r.valid);
    EXPECT_TRUE(std::isinf(r.edp));
}

} // namespace
} // namespace mse
