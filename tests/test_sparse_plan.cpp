/**
 * @file
 * Bit-identity proofs for the planned sparse post-pass.
 *
 * evaluatePlannedSparse and the SoA kernel's sparse tail promise
 * results bit-identical to SparseCostModel::evaluate, and the
 * sparsity-aware and static-density evaluators built on them promise
 * the results of the per-density scalar closures they replaced. These
 * tests check both field by field at %.17g over randomized populations
 * (corrupted mappings included, so every rejection path is compared),
 * a seeded over-capacity set that drives the spill path, four
 * densities and every SAF mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/sparsity_aware.hpp"
#include "mappers/gamma.hpp"
#include "model/batch_eval.hpp"
#include "model/sparse_pass.hpp"
#include "sparse/sparse_model.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

using test::randomizedPopulation;
using test::render;

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

struct SafMode
{
    const char *name;
    SparseAcceleratorFeatures saf;
};

std::vector<SafMode>
safModes()
{
    SparseAcceleratorFeatures skipping;
    SparseAcceleratorFeatures gating;
    gating.skipping = false;
    SparseAcceleratorFeatures neither;
    neither.skipping = false;
    neither.gating = false;
    SparseAcceleratorFeatures uncompressed;
    uncompressed.compress_weights = false;
    uncompressed.compress_activations = false;
    return {{"skipping", skipping},
            {"gating", gating},
            {"no-skip-no-gate", neither},
            {"uncompressed", uncompressed}};
}

const double kDensities[] = {1.0, 0.5, 0.2, 0.05};

/**
 * Seeded structurally legal mappings that overflow a buffer at density
 * 1: random mappings with the outer temporal factors of about half the
 * dims pulled down into L1, which grows the inner tiles while shape,
 * order, factor products and fanout stay legal.
 */
std::vector<Mapping>
overCapacityPopulation(const MapSpace &space, size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Mapping> pop;
    for (size_t tries = 0; pop.size() < n && tries < 100 * n; ++tries) {
        Mapping m = space.randomMapping(rng);
        for (int d = 0; d < m.numDims(); ++d) {
            if (!rng.chance(0.5))
                continue;
            for (int l = 1; l < m.numLevels(); ++l) {
                m.level(0).temporal[d] *= m.level(l).temporal[d];
                m.level(l).temporal[d] = 1;
            }
        }
        if (validateMapping(space.workload(), space.arch(), m) ==
            MappingError::CapacityExceeded) {
            pop.push_back(std::move(m));
        }
    }
    return pop;
}

/** Randomized plus over-capacity mappings of one triple. */
std::vector<Mapping>
testPopulation(const Triple &tr, size_t random, size_t over, uint64_t seed)
{
    const MapSpace space(tr.wl, tr.arch);
    std::vector<Mapping> pop = randomizedPopulation(space, random, seed);
    std::vector<Mapping> big = overCapacityPopulation(space, over, seed);
    EXPECT_EQ(big.size(), over) << tr.name;
    for (Mapping &m : big)
        pop.push_back(std::move(m));
    return pop;
}

std::vector<CostResult>
soaResults(const EvalPlan &plan, const SparsePlan &sparse,
           const std::vector<Mapping> &pop)
{
    constexpr size_t kBatch = 64;
    std::vector<CostResult> out(pop.size());
    for (size_t i = 0; i < pop.size(); i += kBatch) {
        const size_t k = std::min(kBatch, pop.size() - i);
        evaluateBatchSoA(plan, std::span<const Mapping>(pop.data() + i, k),
                         std::span<CostResult>(out.data() + i, k),
                         &sparse);
    }
    return out;
}

// The scalar planned and SoA sparse paths equal
// SparseCostModel::evaluate on every field, for every density and SAF
// mode, over mappings that hit every rejection and the spill.
TEST(SparsePlanDifferential, PlannedAndSoAMatchSparseModel)
{
    for (const Triple &tr : triples()) {
        const std::vector<Mapping> pop = testPopulation(tr, 1500, 200, 0xfeed);
        size_t spilled_at_unit_density = 0;
        for (const SafMode &mode : safModes()) {
            for (const double d : kDensities) {
                Workload wl = tr.wl;
                applyDensities(wl, d, d);
                const EvalPlan plan = EvalPlan::build(wl, tr.arch);
                SparsePlan sparse(wl, mode.saf);
                sparse.addPass(wl);
                const SparseCostModel model(mode.saf);
                const std::vector<CostResult> soa =
                    soaResults(plan, sparse, pop);
                EvalScratch scratch;
                size_t invalid = 0, spilled = 0;
                for (size_t i = 0; i < pop.size(); ++i) {
                    const CostResult want =
                        model.evaluate(wl, tr.arch, pop[i]);
                    CostResult planned;
                    evaluatePlannedSparse(plan, sparse, pop[i], scratch,
                                          planned);
                    const std::string w = render(want);
                    ASSERT_EQ(w, render(planned))
                        << tr.name << " " << mode.name << " d=" << d
                        << " planned mismatch at mapping " << i;
                    ASSERT_EQ(w, render(soa[i]))
                        << tr.name << " " << mode.name << " d=" << d
                        << " SoA mismatch at mapping " << i;
                    if (!want.valid)
                        ++invalid;
                    else if (validateMapping(wl, tr.arch, pop[i]) ==
                             MappingError::CapacityExceeded)
                        ++spilled;
                }
                EXPECT_GT(invalid, pop.size() / 20)
                    << tr.name << " " << mode.name << " d=" << d;
                if (d == 1.0)
                    spilled_at_unit_density += spilled;
            }
        }
        // The over-capacity set must really reach the spill: sparse
        // keeps what the dense capacity check rejects.
        EXPECT_GT(spilled_at_unit_density, 0u) << tr.name;
    }
}

// The engine-facing evaluator (pool fan-out, thread-local scratch) and
// its scalar entry point agree with the kernel at 1 and 4 lanes.
TEST(SparsePlanDifferential, BatchEvaluatorMatchesSparseModel)
{
    const Triple tr = triples().front();
    const std::vector<Mapping> pop = testPopulation(tr, 600, 100, 0xbead);
    Workload wl = tr.wl;
    applyDensities(wl, 0.3, 0.6);
    const SparseCostModel model;
    SparsePlan sparse(wl, model.features());
    sparse.addPass(wl);
    BatchCostEvaluator eval(wl, tr.arch, sparse);
    for (const unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<CostResult> got(pop.size());
        eval.evaluateBatch(pop.data(), nullptr, pop.size(), got.data());
        for (size_t i = 0; i < pop.size(); ++i) {
            const std::string want =
                render(model.evaluate(wl, tr.arch, pop[i]));
            ASSERT_EQ(want, render(got[i]))
                << threads << " lanes, mapping " << i;
            ASSERT_EQ(want, render(eval.evaluateOne(pop[i])))
                << "evaluateOne, mapping " << i;
        }
    }
    ThreadPool::setGlobalThreads(0);
}

/**
 * The sparsity-aware evaluator as it stood before the planned
 * post-pass, verbatim: the full scalar sparse model once per density.
 */
EvalFn
referenceSparsityAware(const MapSpace &space, const SparseCostModel &model,
                       const SparsityAwareConfig &cfg)
{
    std::vector<Workload> workloads;
    workloads.reserve(cfg.densities.size());
    for (double d : cfg.densities) {
        Workload wl = space.workload();
        applyDensities(wl, cfg.weight_density, d);
        workloads.push_back(std::move(wl));
    }
    const ArchConfig arch = space.arch();
    const std::vector<double> densities = cfg.densities;

    return [workloads, arch, densities, model](const Mapping &m) {
        CostResult combined;
        combined.valid = true;
        combined.edp = 0.0;
        combined.energy_uj = 0.0;
        combined.latency_cycles = 0.0;
        for (size_t i = 0; i < workloads.size(); ++i) {
            const CostResult c = model.evaluate(workloads[i], arch, m);
            if (!c.valid) {
                CostResult bad;
                bad.valid = false;
                bad.error = c.error;
                bad.edp = std::numeric_limits<double>::infinity();
                bad.energy_uj = bad.edp;
                bad.latency_cycles = bad.edp;
                return bad;
            }
            const double w = 1.0 / densities[i];
            combined.edp += c.edp * w;
            combined.energy_uj += c.energy_uj * w;
            combined.latency_cycles += c.latency_cycles * w;
        }
        return combined;
    };
}

/** The static-density evaluator before the planned post-pass. */
EvalFn
referenceStaticDensity(const MapSpace &space, const SparseCostModel &model,
                       double activation_density, double weight_density)
{
    Workload wl = space.workload();
    applyDensities(wl, weight_density, activation_density);
    const ArchConfig arch = space.arch();
    return [wl, arch, model](const Mapping &m) {
        return model.evaluate(wl, arch, m);
    };
}

/** Results of `eval` per candidate and through SearchTracker's batch
 *  route (the SoA kernel for a BatchableEval). */
void
expectSameResults(const EvalFn &got, const EvalFn &want,
                  const std::vector<Mapping> &pop, const std::string &tag)
{
    SearchBudget budget;
    budget.max_samples = pop.size();
    SearchTracker tracker(got, budget);
    const std::vector<CostResult> batched = tracker.evaluateBatch(pop);
    ASSERT_EQ(batched.size(), pop.size());
    size_t rejected = 0;
    for (size_t i = 0; i < pop.size(); ++i) {
        const CostResult w = want(pop[i]);
        ASSERT_EQ(render(w), render(got(pop[i])))
            << tag << " scalar, mapping " << i;
        ASSERT_EQ(render(w), render(batched[i]))
            << tag << " batch, mapping " << i;
        rejected += w.valid ? 0 : 1;
    }
    // Corrupted mappings must be rejected by both, with the same error.
    EXPECT_GT(rejected, 0u) << tag;
}

TEST(SparsityAwareDifferential, MatchesPerDensityClosures)
{
    SparsityAwareConfig paper; // {1.0, 0.8, 0.5, 0.2, 0.1}
    SparsityAwareConfig sparse_weights;
    sparse_weights.densities = {1.0, 0.5, 0.2, 0.05};
    sparse_weights.weight_density = 0.5;
    SparsityAwareConfig single;
    single.densities = {1.0};
    const SparsityAwareConfig cfgs[] = {paper, sparse_weights, single};
    for (const Triple &tr : triples()) {
        const MapSpace space(tr.wl, tr.arch);
        const std::vector<Mapping> pop = testPopulation(tr, 700, 100, 0xace);
        for (const SafMode &mode : safModes()) {
            const SparseCostModel model(mode.saf);
            for (size_t c = 0; c < std::size(cfgs); ++c) {
                expectSameResults(
                    makeSparsityAwareEvaluator(space, model, cfgs[c]),
                    referenceSparsityAware(space, model, cfgs[c]), pop,
                    std::string(tr.name) + " " + mode.name + " cfg " +
                        std::to_string(c));
            }
        }
    }
}

TEST(SparsityAwareDifferential, StaticDensityMatchesScalarClosure)
{
    for (const Triple &tr : triples()) {
        const MapSpace space(tr.wl, tr.arch);
        const std::vector<Mapping> pop = testPopulation(tr, 700, 100, 0xd1);
        for (const SafMode &mode : safModes()) {
            const SparseCostModel model(mode.saf);
            for (const double d : kDensities) {
                expectSameResults(
                    makeStaticDensityEvaluator(space, model, d, 0.5),
                    referenceStaticDensity(space, model, d, 0.5), pop,
                    std::string(tr.name) + " " + mode.name +
                        " d=" + std::to_string(d));
            }
        }
    }
}

// The reject-if-invalid-at-any-density rule: a mapping that is illegal
// at one density is rejected outright, with the reference's error; one
// that merely overflows a buffer at density 1 is kept (it spills).
TEST(SparsityAwareDifferential, RejectsExactlyWhenAnyDensityRejects)
{
    const Triple tr = triples().front();
    const MapSpace space(tr.wl, tr.arch);
    const SparseCostModel model;
    const SparsityAwareConfig cfg;
    const EvalFn got = makeSparsityAwareEvaluator(space, model, cfg);
    const EvalFn want = referenceSparsityAware(space, model, cfg);
    const std::vector<Mapping> pop = testPopulation(tr, 340, 20, 0x5eed);
    size_t rejected = 0, kept_over_capacity = 0;
    for (const Mapping &m : pop) {
        const CostResult g = got(m);
        ASSERT_EQ(render(want(m)), render(g));
        bool any_invalid = false;
        for (const double d : cfg.densities) {
            Workload wl = tr.wl;
            applyDensities(wl, cfg.weight_density, d);
            any_invalid |= !model.evaluate(wl, tr.arch, m).valid;
        }
        EXPECT_EQ(g.valid, !any_invalid);
        rejected += g.valid ? 0 : 1;
        if (g.valid && validateMapping(tr.wl, tr.arch, m) ==
                           MappingError::CapacityExceeded)
            ++kept_over_capacity;
    }
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(kept_over_capacity, 0u);
}

// Whole Table-4-style searches (scalar selection, no bypass) are
// bit-identical under the planned evaluators and the references, at 1
// and 4 pool lanes.
TEST(SparsityAwareDifferential, SearchesMatchReferenceEvaluators)
{
    const Workload wl = resnetConv3();
    const ArchConfig arch = accelB();
    const MapSpace space(wl, arch);
    const SparseCostModel model;
    const SparsityAwareConfig cfg;
    const auto search = [&](const EvalFn &eval) {
        GammaConfig gc;
        gc.multi_objective = false;
        gc.enable_bypass = false;
        GammaMapper gamma(gc);
        SearchBudget budget;
        budget.max_samples = 600;
        Rng rng(5);
        return gamma.search(space, eval, budget, rng);
    };
    ThreadPool::setGlobalThreads(1);
    const SearchResult aware_ref =
        search(referenceSparsityAware(space, model, cfg));
    const SearchResult static_ref =
        search(referenceStaticDensity(space, model, 0.1, 1.0));
    for (const unsigned threads : {1u, 4u}) {
        ThreadPool::setGlobalThreads(threads);
        const SearchResult aware =
            search(makeSparsityAwareEvaluator(space, model, cfg));
        EXPECT_TRUE(aware.best_mapping == aware_ref.best_mapping);
        EXPECT_EQ(aware.log.best_edp_per_sample,
                  aware_ref.log.best_edp_per_sample)
            << threads << " lanes";
        const SearchResult stat =
            search(makeStaticDensityEvaluator(space, model, 0.1));
        EXPECT_TRUE(stat.best_mapping == static_ref.best_mapping);
        EXPECT_EQ(stat.log.best_edp_per_sample,
                  static_ref.log.best_edp_per_sample)
            << threads << " lanes";
    }
    ThreadPool::setGlobalThreads(0);
}

} // namespace
} // namespace mse
