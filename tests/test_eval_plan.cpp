/**
 * @file
 * Bit-identity proofs for the planned evaluation pipeline.
 *
 * The EvalPlan/SoA paths promise results bit-identical to
 * CostModel::evaluate for every mapping, valid or not. These tests
 * enforce that promise the same way the golden traces do — through the
 * %.17g rendering that round-trips IEEE-754 doubles — across large
 * randomized mapping populations (including corrupted ones that hit
 * every validation error), GA offspring, and whole dense and sparse
 * engine searches against scalar-oracle searches at 1 and 4 threads.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/mse_engine.hpp"
#include "mappers/gamma.hpp"
#include "mappers/standard_ga.hpp"
#include "mapping/map_space.hpp"
#include "model/batch_eval.hpp"
#include "model/cost_model.hpp"
#include "model/eval_plan.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

/** Exact decimal rendering that round-trips IEEE-754 doubles. */
std::string
g17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Render every field of a CostResult for bitwise comparison. */
std::string
render(const CostResult &c)
{
    std::string s;
    s += c.valid ? "valid" : "invalid";
    s += " err=" + std::to_string(static_cast<int>(c.error));
    s += " lat=" + g17(c.latency_cycles);
    s += " e=" + g17(c.energy_uj);
    s += " edp=" + g17(c.edp);
    s += " cc=" + g17(c.compute_cycles);
    s += " util=" + g17(c.utilization);
    s += " macs=" + g17(c.macs);
    s += " le=[";
    for (double v : c.level_energy_uj)
        s += g17(v) + ",";
    s += "] lc=[";
    for (double v : c.level_cycles)
        s += g17(v) + ",";
    s += "]";
    return s;
}

/**
 * A randomized population that exercises every validation stage:
 * mostly space-legal mappings, spiced with corrupted ones (bad factor
 * products, zero factors, broken permutations, dropped DRAM
 * residency) so the error paths differ too.
 */
std::vector<Mapping>
randomizedPopulation(const MapSpace &space, size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Mapping> pop;
    pop.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Mapping m = space.randomMapping(rng);
        const int L = m.numLevels();
        const int D = static_cast<int>(m.level(0).temporal.size());
        switch (i % 17) {
        case 3: // break the per-dimension factor product
            m.level(static_cast<int>(rng.index(L)))
                .temporal[rng.index(D)] += 1;
            break;
        case 5: // zero factor (factors-below-one error)
            m.level(static_cast<int>(rng.index(L)))
                .spatial[rng.index(D)] = 0;
            break;
        case 7: { // duplicate order entry (broken permutation)
            auto &ord = m.level(static_cast<int>(rng.index(L))).order;
            ord[0] = ord[D - 1];
            break;
        }
        case 11: // out-of-range order entry
            m.level(static_cast<int>(rng.index(L))).order[0] = D + 3;
            break;
        case 13: // DRAM must keep every tensor
            if (!m.level(L - 1).keep.empty())
                m.level(L - 1).keep[0] = 0;
            break;
        default:
            break; // space-legal (may still exceed capacity/fanout)
        }
        pop.push_back(std::move(m));
    }
    return pop;
}

struct Triple
{
    const char *name;
    Workload wl;
    ArchConfig arch;
};

std::vector<Triple>
triples()
{
    return {
        {"resnet_conv4/accelB", resnetConv4(), accelB()},
        {"bert_kqv/accelA", bertKqv(), accelA()},
        {"tiny_conv/mini_npu", test::tinyConv(), test::miniNpu()},
    };
}

// Tentpole acceptance: >= 10k randomized mappings per (workload, arch)
// triple, scalar vs planned vs SoA, %.17g-identical on every field.
TEST(EvalPlanDifferential, ScalarPlannedAndSoAAgreeOnRandomMappings)
{
    constexpr size_t kMappings = 10000;
    constexpr size_t kBatch = 64;
    for (const Triple &tr : triples()) {
        MapSpace space(tr.wl, tr.arch);
        const std::vector<Mapping> pop =
            randomizedPopulation(space, kMappings, 0xfeed);
        const EvalPlan plan = EvalPlan::build(tr.wl, tr.arch);
        EvalScratch scratch;
        std::vector<CostResult> soa(pop.size());
        for (size_t i = 0; i < pop.size(); i += kBatch) {
            const size_t k = std::min(kBatch, pop.size() - i);
            evaluateBatchSoA(
                plan, std::span<const Mapping>(pop.data() + i, k),
                std::span<CostResult>(soa.data() + i, k));
        }
        size_t invalid = 0;
        for (size_t i = 0; i < pop.size(); ++i) {
            const CostResult scalar =
                CostModel::evaluate(tr.wl, tr.arch, pop[i]);
            CostResult planned;
            evaluatePlanned(plan, pop[i], scratch, planned);
            const std::string want = render(scalar);
            ASSERT_EQ(want, render(planned))
                << tr.name << " planned mismatch at mapping " << i;
            ASSERT_EQ(want, render(soa[i]))
                << tr.name << " SoA mismatch at mapping " << i;
            if (!scalar.valid)
                ++invalid;
        }
        // The population must actually exercise both sides.
        EXPECT_GT(invalid, kMappings / 20) << tr.name;
        EXPECT_GT(pop.size() - invalid, kMappings / 20) << tr.name;
    }
}

// The access rows evaluatePlanned leaves in scratch must match the
// scalar traffic model exactly.
TEST(EvalPlanDifferential, RowsMatchComputeAccessCounts)
{
    const Workload wl = bertKqv();
    const ArchConfig arch = accelA();
    MapSpace space(wl, arch);
    const EvalPlan plan = EvalPlan::build(wl, arch);
    EvalScratch scratch;
    Rng rng(0x77);
    const int L = plan.L, T = plan.T;
    size_t checked = 0;
    for (int i = 0; i < 400 && checked < 50; ++i) {
        const Mapping m = space.randomMapping(rng);
        CostResult c;
        evaluatePlanned(plan, m, scratch, c);
        if (!c.valid)
            continue;
        ++checked;
        const std::vector<TensorLevelAccess> &rows = scratch.rows;
        const AccessCounts counts = computeAccessCounts(wl, arch, m);
        ASSERT_EQ(rows.size(), static_cast<size_t>(L) * T);
        for (int l = 0; l < L; ++l) {
            for (int t = 0; t < T; ++t) {
                const TensorLevelAccess &got =
                    rows[static_cast<size_t>(l) * T + t];
                const TensorLevelAccess &want = counts.access[l][t];
                ASSERT_EQ(g17(want.reads), g17(got.reads));
                ASSERT_EQ(g17(want.writes), g17(got.writes));
            }
        }
    }
    EXPECT_GE(checked, 50u);
}

// The batch evaluator must produce the same results as the bare SoA
// kernel, and the (ignored) parent hints must not change them.
TEST(EvalPlanDifferential, PipelineWithHintsMatchesSoA)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(0x2024);

    std::vector<Mapping> parents;
    for (int i = 0; i < 16; ++i)
        parents.push_back(space.randomMapping(rng));
    std::vector<Mapping> batch = parents;
    std::vector<EvalHint> hints(parents.size());
    for (size_t i = 0; i < parents.size(); ++i) {
        Mapping child = parents[i];
        GammaMapper::mutateTile(space, child, rng);
        space.repair(child);
        batch.push_back(std::move(child));
        hints.push_back(EvalHint{&parents[i]});
    }

    BatchCostEvaluator pipeline(wl, arch);
    std::vector<CostResult> got(batch.size());
    pipeline.evaluateBatch(batch.data(), hints.data(), batch.size(),
                           got.data());

    const EvalPlan plan = EvalPlan::build(wl, arch);
    std::vector<CostResult> want(batch.size());
    evaluateBatchSoA(plan, batch, want);
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(render(want[i]), render(got[i])) << "candidate " << i;

    // Re-evaluating the same batch without hints gives identical
    // results.
    std::vector<CostResult> again(batch.size());
    pipeline.evaluateBatch(batch.data(), nullptr, batch.size(),
                           again.data());
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(render(want[i]), render(again[i]));
}

/** Log + best + Pareto frontier points of one finished search, for
 *  comparison (the points, not their sample indices, are invariant
 *  across thread counts). */
std::string
fingerprint(const MseOutcome &out)
{
    std::string s = render(out.search.best_cost);
    s += " samples=";
    s += std::to_string(out.search.log.samples);
    for (double v : out.search.log.best_edp_per_sample) {
        s += ' ';
        s += g17(v);
    }
    std::vector<std::pair<double, double>> front;
    for (const auto &e : out.pareto.entries())
        front.emplace_back(e.energy, e.latency);
    std::sort(front.begin(), front.end());
    s += " pareto=";
    for (const auto &[energy, latency] : front)
        s += g17(energy) + "/" + g17(latency) + ",";
    return s;
}

// Acceptance: dense Gamma (Edp and a non-Edp objective) and StandardGA
// engine searches are bit-identical to an oracle search that scores
// every mapping with the scalar CostModel::evaluate, and sparse Gamma
// searches to one that scores with SparseCostModel::evaluate, at 1 and
// 4 pool lanes.
TEST(EvalPlanDifferential, EngineSearchesBitIdenticalAcrossEvalPaths)
{
    const ArchConfig arch = accelB();
    const Workload dense = resnetConv4();
    Workload sparse = resnetConv4();
    applyDensities(sparse, 0.3, 0.6);
    struct Leg
    {
        const char *name;
        const Workload *wl;
        bool sparse;
        bool gamma;
        Objective objective;
    };
    const Leg legs[] = {
        {"dense gamma", &dense, false, true, Objective::Edp},
        {"dense gamma latency", &dense, false, true, Objective::Latency},
        {"dense standard-ga", &dense, false, false, Objective::Edp},
        {"sparse gamma edp", &sparse, true, true, Objective::Edp},
        {"sparse gamma latency", &sparse, true, true, Objective::Latency},
    };
    const auto run = [&](const Leg &leg, bool oracle) {
        MseOptions opts;
        opts.budget.max_samples = 400;
        opts.update_replay = false;
        opts.sparse = leg.sparse;
        opts.objective = leg.objective;
        GammaMapper gm;
        StandardGaMapper sm;
        Mapper &mapper = leg.gamma ? static_cast<Mapper &>(gm) : sm;
        MseEngine engine(arch);
        Rng rng(99);
        if (!oracle)
            return fingerprint(engine.optimize(*leg.wl, mapper, opts, rng));
        const Workload &wl = *leg.wl;
        const SparseCostModel model;
        const EvalFn eval = makeObjectiveEvaluator(
            [&](const Mapping &m) {
                return leg.sparse ? model.evaluate(wl, arch, m)
                                  : CostModel::evaluate(wl, arch, m);
            },
            opts.objective);
        return fingerprint(engine.optimizeWithEvaluator(
            MapSpace(wl, arch), eval, mapper, opts, rng));
    };
    for (const Leg &leg : legs) {
        ThreadPool::setGlobalThreads(1);
        const std::string scalar = run(leg, true);
        for (const unsigned threads : {1u, 4u}) {
            ThreadPool::setGlobalThreads(threads);
            EXPECT_EQ(run(leg, false), scalar)
                << leg.name << " at " << threads
                << " threads: engine vs scalar oracle diverged";
        }
    }
    ThreadPool::setGlobalThreads(0);
}

} // namespace
} // namespace mse
