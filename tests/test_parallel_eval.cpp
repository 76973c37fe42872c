/**
 * @file
 * Determinism tests for the parallel batch-evaluation layer: for a
 * fixed RNG seed, a fully serial run (pool size 1) and a multi-threaded
 * run must produce bit-identical search results and convergence logs,
 * and the engine's batch path must match a scalar-oracle search.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/mse_engine.hpp"
#include "mappers/gamma.hpp"
#include "mappers/random_pruned.hpp"
#include "mappers/standard_ga.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

/** Restore a 1-lane global pool after each test, whatever happened. */
class ParallelEval : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

SearchResult
runMapper(Mapper &mapper, unsigned threads, uint64_t seed,
          size_t max_samples)
{
    ThreadPool::setGlobalThreads(threads);
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    EvalFn eval = [wl, arch](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    SearchBudget budget;
    budget.max_samples = max_samples;
    Rng rng(seed);
    return mapper.search(space, eval, budget, rng);
}

void
expectIdenticalRuns(const SearchResult &serial, const SearchResult &par)
{
    ASSERT_TRUE(serial.found());
    ASSERT_TRUE(par.found());
    EXPECT_EQ(serial.best_cost.edp, par.best_cost.edp);
    EXPECT_EQ(serial.best_cost.energy_uj, par.best_cost.energy_uj);
    EXPECT_EQ(serial.best_cost.latency_cycles,
              par.best_cost.latency_cycles);
    EXPECT_TRUE(serial.best_mapping == par.best_mapping);
    EXPECT_EQ(serial.log.samples, par.log.samples);
    ASSERT_EQ(serial.log.best_edp_per_sample.size(),
              par.log.best_edp_per_sample.size());
    for (size_t i = 0; i < serial.log.best_edp_per_sample.size(); ++i) {
        ASSERT_EQ(serial.log.best_edp_per_sample[i],
                  par.log.best_edp_per_sample[i])
            << "per-sample log diverges at sample " << i;
    }
    ASSERT_EQ(serial.log.best_edp_per_generation.size(),
              par.log.best_edp_per_generation.size());
    for (size_t i = 0; i < serial.log.best_edp_per_generation.size();
         ++i) {
        ASSERT_EQ(serial.log.best_edp_per_generation[i],
                  par.log.best_edp_per_generation[i])
            << "per-generation log diverges at generation " << i;
    }
}

TEST_F(ParallelEval, GammaSerialAndParallelRunsAreIdentical)
{
    GammaMapper serial_mapper, parallel_mapper;
    const SearchResult serial = runMapper(serial_mapper, 1, 7, 600);
    const SearchResult par = runMapper(parallel_mapper, 4, 7, 600);
    expectIdenticalRuns(serial, par);
}

TEST_F(ParallelEval, StandardGaSerialAndParallelRunsAreIdentical)
{
    StandardGaMapper serial_mapper, parallel_mapper;
    const SearchResult serial = runMapper(serial_mapper, 1, 13, 500);
    const SearchResult par = runMapper(parallel_mapper, 4, 13, 500);
    expectIdenticalRuns(serial, par);
}

TEST_F(ParallelEval, RandomPrunedSerialAndParallelRunsAreIdentical)
{
    RandomPrunedMapper serial_mapper, parallel_mapper;
    const SearchResult serial = runMapper(serial_mapper, 1, 29, 400);
    const SearchResult par = runMapper(parallel_mapper, 4, 29, 400);
    expectIdenticalRuns(serial, par);
}

TEST_F(ParallelEval, EvaluateBatchHonorsSampleBudget)
{
    ThreadPool::setGlobalThreads(4);
    const Workload wl = test::tinyConv();
    const ArchConfig arch = test::miniNpu();
    MapSpace space(wl, arch);
    EvalFn eval = [wl, arch](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    SearchBudget budget;
    budget.max_samples = 10;
    SearchTracker tracker(eval, budget);
    Rng rng(3);
    std::vector<Mapping> batch;
    for (int i = 0; i < 64; ++i)
        batch.push_back(space.randomMapping(rng));
    const auto &costs = tracker.evaluateBatch(batch);
    EXPECT_EQ(costs.size(), 10u);
    EXPECT_EQ(tracker.samples(), 10u);
    EXPECT_TRUE(tracker.exhausted());
    // A further batch evaluates nothing.
    EXPECT_TRUE(tracker.evaluateBatch(batch).empty());
}

TEST_F(ParallelEval, EvaluateBatchEdgeShapes)
{
    // Empty batch, singleton batch, and a pool wider than the batch
    // must all behave like the serial reference.
    ThreadPool::setGlobalThreads(8);
    const Workload wl = test::tinyConv();
    const ArchConfig arch = test::miniNpu();
    MapSpace space(wl, arch);
    EvalFn eval = [wl, arch](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
    SearchBudget budget;
    budget.max_samples = 100;
    SearchTracker tracker(eval, budget);
    Rng rng(5);

    EXPECT_TRUE(tracker.evaluateBatch({}).empty());
    EXPECT_EQ(tracker.samples(), 0u);

    const Mapping single = space.randomMapping(rng);
    const auto &one = tracker.evaluateBatch({single});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].edp, CostModel::evaluate(wl, arch, single).edp);
    EXPECT_EQ(tracker.samples(), 1u);

    std::vector<Mapping> small; // 3 candidates on an 8-lane pool
    for (int i = 0; i < 3; ++i)
        small.push_back(space.randomMapping(rng));
    const auto &costs = tracker.evaluateBatch(small);
    ASSERT_EQ(costs.size(), 3u);
    for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(costs[i].edp,
                  CostModel::evaluate(wl, arch, small[i]).edp)
            << "index " << i;
    }
    EXPECT_EQ(tracker.samples(), 4u);
}

TEST_F(ParallelEval, EnginePathMatchesScalarOracleTrajectory)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();

    auto run = [&](bool oracle, unsigned threads) {
        ThreadPool::setGlobalThreads(threads);
        MseEngine engine(arch);
        GammaMapper mapper;
        MseOptions opts;
        opts.budget.max_samples = 600;
        Rng rng(42);
        if (!oracle)
            return engine.optimize(wl, mapper, opts, rng);
        const EvalFn eval = [&](const Mapping &m) {
            return CostModel::evaluate(wl, arch, m);
        };
        return engine.runSearch(MapSpace(wl, arch), eval, mapper, opts,
                                rng);
    };

    const MseOutcome oracle = run(true, 1);
    const MseOutcome engine = run(false, 1);
    const MseOutcome engine_parallel = run(false, 4);

    EXPECT_EQ(engine.search.log.samples, 600u);
    expectIdenticalRuns(oracle.search, engine.search);
    expectIdenticalRuns(oracle.search, engine_parallel.search);
}

TEST_F(ParallelEval, ParetoFrontierContentIsThreadCountInvariant)
{
    const Workload wl = resnetConv4();
    auto run = [&](unsigned threads) {
        ThreadPool::setGlobalThreads(threads);
        MseEngine engine(accelB());
        GammaMapper mapper;
        MseOptions opts;
        opts.budget.max_samples = 400;
        Rng rng(9);
        return engine.optimize(wl, mapper, opts, rng);
    };
    const MseOutcome serial = run(1);
    const MseOutcome par = run(4);

    // Payload sample indices may differ across thread counts; the
    // frontier's objective-space content may not.
    auto points = [](const MseOutcome &o) {
        std::vector<std::pair<double, double>> pts;
        for (const auto &e : o.pareto.entries())
            pts.emplace_back(e.energy, e.latency);
        std::sort(pts.begin(), pts.end());
        return pts;
    };
    EXPECT_EQ(points(serial), points(par));
}

} // namespace
} // namespace mse
