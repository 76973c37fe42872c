/**
 * @file
 * Bit-identity proofs for the planned evaluation pipeline.
 *
 * The EvalPlan/SoA/incremental paths promise results bit-identical to
 * CostModel::evaluate for every mapping, valid or not. These tests
 * enforce that promise the same way the golden traces do — through the
 * %.17g rendering that round-trips IEEE-754 doubles — across large
 * randomized mapping populations (including corrupted ones that hit
 * every validation error), GA offspring (mutate-tile, mutate-order,
 * crossover), and whole engine searches with the incremental path
 * toggled on and off.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/mse_engine.hpp"
#include "mappers/gamma.hpp"
#include "mappers/standard_ga.hpp"
#include "mapping/map_space.hpp"
#include "model/batch_eval.hpp"
#include "model/cost_model.hpp"
#include "model/eval_plan.hpp"
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

// The incremental path must be bit-identical whenever it claims to
// handle a child, across all three GA operators, and must actually
// fire (otherwise the test proves nothing).
TEST(EvalPlanDifferential, IncrementalMatchesFullOnGaOffspring)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    const EvalPlan plan = EvalPlan::build(wl, arch);
    EvalScratch scratch;
    Rng rng(0xabcd);

    // Collect valid parents with their access rows.
    std::vector<Mapping> parents;
    std::vector<std::vector<TensorLevelAccess>> parent_rows;
    while (parents.size() < 40) {
        Mapping m = space.randomMapping(rng);
        CostResult c;
        std::vector<TensorLevelAccess> rows;
        evaluatePlanned(plan, m, scratch, c, &rows);
        if (c.valid) {
            parents.push_back(std::move(m));
            parent_rows.push_back(std::move(rows));
        }
    }

    size_t handled = 0, total = 0;
    const auto check = [&](const Mapping &child, size_t p) {
        ++total;
        CostResult full;
        std::vector<TensorLevelAccess> full_rows;
        evaluatePlanned(plan, child, scratch, full, &full_rows);
        CostResult inc;
        std::vector<TensorLevelAccess> inc_rows;
        if (evaluateIncremental(plan, child, parents[p],
                                parent_rows[p].data(), scratch, inc,
                                &inc_rows)) {
            ++handled;
            ASSERT_EQ(render(full), render(inc));
            if (full.valid) {
                ASSERT_EQ(full_rows.size(), inc_rows.size());
                for (size_t r = 0; r < full_rows.size(); ++r) {
                    ASSERT_EQ(g17(full_rows[r].reads),
                              g17(inc_rows[r].reads));
                    ASSERT_EQ(g17(full_rows[r].writes),
                              g17(inc_rows[r].writes));
                }
            }
        }
    };

    for (size_t p = 0; p < parents.size(); ++p) {
        for (int i = 0; i < 30; ++i) {
            Mapping child = parents[p];
            GammaMapper::mutateTile(space, child, rng);
            space.repair(child);
            check(child, p);
        }
        for (int i = 0; i < 30; ++i) {
            Mapping child = parents[p];
            GammaMapper::mutateOrder(child, rng);
            check(child, p);
        }
        for (int i = 0; i < 30; ++i) {
            const size_t q = rng.index(parents.size());
            Mapping child =
                GammaMapper::crossover(parents[p], parents[q], rng);
            space.repair(child);
            check(child, p);
        }
    }
    // The delta prover is conservative, but it must not be vacuous.
    EXPECT_GT(handled, total / 10)
        << "incremental path almost never fires (" << handled << "/"
        << total << ")";
}

// rows_out is the payload incremental evaluation keys on; it must match
// the scalar traffic model exactly.
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
        std::vector<TensorLevelAccess> rows;
        evaluatePlanned(plan, m, scratch, c, &rows);
        if (!c.valid)
            continue;
        ++checked;
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

// The pipelined evaluator with parent hints must produce the same
// results as the hint-free SoA kernel.
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

    BatchCostEvaluator::Options opts;
    opts.use_cache = true;
    opts.use_incremental = true;
    BatchCostEvaluator pipeline(wl, arch, opts);
    std::vector<CostResult> got(batch.size());
    pipeline.evaluateBatch(batch.data(), hints.data(), batch.size(),
                           got.data());

    const EvalPlan plan = EvalPlan::build(wl, arch);
    std::vector<CostResult> want(batch.size());
    evaluateBatchSoA(plan, batch, want);
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(render(want[i]), render(got[i])) << "candidate " << i;

    // Re-evaluating the same batch must be served from the store with
    // identical results.
    std::vector<CostResult> again(batch.size());
    pipeline.evaluateBatch(batch.data(), hints.data(), batch.size(),
                           again.data());
    for (size_t i = 0; i < batch.size(); ++i)
        ASSERT_EQ(render(want[i]), render(again[i]));
    EXPECT_GT(pipeline.cacheHits(), 0u);
}

/** Log + best + Pareto size of one finished search, for comparison. */
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
    s += " pareto=";
    s += std::to_string(out.pareto.entries().size());
    return s;
}

// Acceptance: Gamma and StandardGA engine searches are bit-identical
// with incremental re-evaluation on vs. off, and to an oracle search
// that scores every mapping with the scalar CostModel::evaluate.
TEST(EvalPlanDifferential, EngineSearchesBitIdenticalAcrossEvalPaths)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    const auto run = [&](bool use_incremental, bool oracle, bool gamma) {
        MseOptions opts;
        opts.budget.max_samples = 400;
        opts.use_incremental = use_incremental;
        opts.update_replay = false;
        GammaMapper gm;
        StandardGaMapper sm;
        Mapper &mapper = gamma ? static_cast<Mapper &>(gm) : sm;
        MseEngine engine(arch);
        Rng rng(99);
        if (!oracle)
            return fingerprint(engine.optimize(wl, mapper, opts, rng));
        const EvalFn eval = makeObjectiveEvaluator(
            [&](const Mapping &m) {
                return CostModel::evaluate(wl, arch, m);
            },
            opts.objective);
        return fingerprint(engine.optimizeWithEvaluator(
            MapSpace(wl, arch), eval, mapper, opts, rng));
    };
    for (const bool gamma : {true, false}) {
        const std::string plan_inc = run(true, false, gamma);
        const std::string plan_noinc = run(false, false, gamma);
        const std::string scalar = run(false, true, gamma);
        EXPECT_EQ(plan_inc, plan_noinc)
            << (gamma ? "gamma" : "standard-ga")
            << ": incremental on/off diverged";
        EXPECT_EQ(plan_inc, scalar)
            << (gamma ? "gamma" : "standard-ga")
            << ": planned pipeline vs scalar oracle diverged";
    }
}

} // namespace
} // namespace mse
