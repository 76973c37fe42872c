/**
 * @file
 * End-to-end integration tests: whole deployment workflows across
 * modules, the closest thing to a user's compile flow.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "core/mse_engine.hpp"
#include "core/objective.hpp"
#include "mapping/mapping_io.hpp"
#include "mappers/gamma.hpp"
#include "mappers/local_search.hpp"
#include "mappers/random_pruned.hpp"
#include "model/analysis.hpp"
#include "service/mapping_store.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

TEST(Integration, CompileSessionWithPersistedCacheWarmStarts)
{
    // Session 1: optimize two ResNet layers, persist the winners to a
    // MappingStore file.
    const std::string cache = test::tempPath("mse_integration_store.jsonl");
    std::remove(cache.c_str());
    const ArchConfig arch = accelB();
    {
        MappingStore store(cache);
        MseEngine engine(arch);
        GammaMapper gamma;
        MseOptions opts;
        opts.budget.max_samples = 1200;
        Rng rng(1);
        for (const Workload &wl : {resnetConv3(), resnetConv4()}) {
            const MseOutcome o = engine.optimize(wl, gamma, opts, rng);
            ASSERT_TRUE(o.search.found());
            const CostResult &c = o.search.best_cost;
            ASSERT_TRUE(store.recordIfBetter(
                wl, arch, Objective::Edp, false, o.search.best_mapping,
                c.edp, c.energy_uj, c.latency_cycles,
                o.search.log.samples));
        }
    }

    // Session 2: fresh engine, load the store, seed the replay buffer
    // from its lookup and map a similar layer with warm-start; the
    // initial generation must already be far below a cold random
    // population's.
    {
        MappingStore store(cache);
        ASSERT_EQ(store.load(), 2u);

        const Workload target =
            makeConv2d("conv4_wide", 16, 256, 512, 14, 14, 3, 3);
        const MappingStore::Lookup lk = store.lookup(
            target, arch, Objective::Edp, false, /*max_distance=*/8.0);
        ASSERT_NE(lk.hit, StoreHit::Miss);

        MseEngine engine(arch);
        engine.replay().push(lk.entry.workload, lk.entry.mapping,
                             CostModel::evaluate(lk.entry.workload, arch,
                                                 lk.entry.mapping));
        GammaMapper gamma;
        MseOptions warm_opts;
        warm_opts.budget.max_samples = 600;
        warm_opts.warm_start = WarmStartStrategy::BySimilarity;
        Rng rng(2);
        const MseOutcome warm =
            engine.optimize(target, gamma, warm_opts, rng);

        MseEngine cold_engine(arch);
        MseOptions cold_opts = warm_opts;
        cold_opts.warm_start = WarmStartStrategy::None;
        Rng rng2(2);
        const MseOutcome cold =
            cold_engine.optimize(target, gamma, cold_opts, rng2);

        ASSERT_TRUE(warm.search.found() && cold.search.found());
        EXPECT_LT(warm.search.log.best_edp_per_generation.front(),
                  cold.search.log.best_edp_per_generation.front());
    }
    std::remove(cache.c_str());
}

TEST(Integration, BestMappingSurvivesSerializationIntoDeployment)
{
    // Optimize, serialize the winner, "ship" it, deserialize and verify
    // identical cost and legality on the deployment side.
    const Workload wl = bertAttn();
    const ArchConfig arch = accelA();
    MapSpace space(wl, arch);
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    GammaMapper gamma;
    SearchBudget budget;
    budget.max_samples = 1000;
    Rng rng(3);
    const SearchResult r = gamma.search(space, eval, budget, rng);
    ASSERT_TRUE(r.found());

    const std::string wire = serializeMapping(r.best_mapping);
    const auto shipped = parseMapping(wire);
    ASSERT_TRUE(shipped.has_value());
    EXPECT_EQ(validateMapping(wl, arch, *shipped), MappingError::Ok);
    EXPECT_DOUBLE_EQ(CostModel::evaluate(wl, arch, *shipped).edp,
                     r.best_cost.edp);
}

TEST(Integration, AllMappersAgreeOnTheEasyOptimum)
{
    // A tiny problem whose optimum every mapper should approach: the
    // cross-mapper sanity net for the whole stack.
    const Workload wl = makeGemm("small", 1, 8, 8, 8);
    const ArchConfig arch = makeNpu("small-npu", 1 << 14, 1 << 10, 4, 2);
    MapSpace space(wl, arch);
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    SearchBudget budget;
    budget.max_samples = 2000;

    std::vector<double> results;
    {
        RandomPrunedMapper m;
        Rng rng(4);
        results.push_back(
            m.search(space, eval, budget, rng).best_cost.edp);
    }
    {
        GammaMapper m;
        Rng rng(5);
        results.push_back(
            m.search(space, eval, budget, rng).best_cost.edp);
    }
    {
        SimulatedAnnealingMapper m;
        Rng rng(6);
        results.push_back(
            m.search(space, eval, budget, rng).best_cost.edp);
    }
    {
        HillClimbMapper m;
        Rng rng(7);
        results.push_back(
            m.search(space, eval, budget, rng).best_cost.edp);
    }
    const double best = *std::min_element(results.begin(), results.end());
    for (double r : results)
        EXPECT_LE(r, best * 3.0); // all within 3x of the group best
}

TEST(Integration, ObjectiveAwareEngineRunThroughPublicApi)
{
    // Latency-objective MSE through the engine's public options.
    const Workload wl = resnetConv3();
    const ArchConfig arch = accelB();
    MseEngine engine(arch);
    GammaConfig cfg;
    cfg.multi_objective = false;
    GammaMapper gamma(cfg);
    MseOptions opts;
    opts.budget.max_samples = 1000;
    opts.objective = Objective::Latency;
    Rng rng(8);
    const MseOutcome out = engine.optimize(wl, gamma, opts, rng);
    ASSERT_TRUE(out.search.found());
    // A latency-optimized mapping should achieve high utilization.
    const CostResult truth =
        CostModel::evaluate(wl, arch, out.search.best_mapping);
    EXPECT_GT(truth.utilization, 0.5);
}

TEST(Integration, SearchResultsAreReproducibleAcrossRuns)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    auto runOnce = [&]() {
        GammaMapper gamma;
        SearchBudget budget;
        budget.max_samples = 800;
        Rng rng(99);
        return gamma.search(space, eval, budget, rng).best_cost.edp;
    };
    EXPECT_DOUBLE_EQ(runOnce(), runOnce());
}

TEST(Integration, AnalysisNamesTheOptimizedDataflow)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    EvalFn eval = [&](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    GammaMapper gamma;
    SearchBudget budget;
    budget.max_samples = 1500;
    Rng rng(10);
    const SearchResult r = gamma.search(space, eval, budget, rng);
    ASSERT_TRUE(r.found());
    // Whatever bucket wins, the classifier must return a printable name
    // and the intensity must be meaningful.
    const Stationarity s = classifyStationarity(wl, r.best_mapping);
    EXPECT_NE(stationarityName(s), nullptr);
    EXPECT_GT(arithmeticIntensity(wl, arch, r.best_mapping), 1.0);
}

} // namespace
} // namespace mse
