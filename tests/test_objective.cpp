#include <gtest/gtest.h>

#include "core/objective.hpp"
#include "mappers/gamma.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

TEST(Objective, NamesAreDistinct)
{
    EXPECT_STREQ(objectiveName(Objective::Edp), "EDP");
    EXPECT_STREQ(objectiveName(Objective::Energy), "energy");
    EXPECT_STREQ(objectiveName(Objective::Latency), "latency");
    EXPECT_STREQ(objectiveName(Objective::Ed2p), "ED2P");
    EXPECT_STREQ(objectiveName(Objective::E2dp), "E2DP");
}

TEST(Objective, ScoresMatchDefinitions)
{
    CostResult c;
    c.valid = true;
    c.energy_uj = 3.0;
    c.latency_cycles = 5.0;
    EXPECT_DOUBLE_EQ(objectiveScore(c, Objective::Edp), 15.0);
    EXPECT_DOUBLE_EQ(objectiveScore(c, Objective::Energy), 3.0);
    EXPECT_DOUBLE_EQ(objectiveScore(c, Objective::Latency), 5.0);
    EXPECT_DOUBLE_EQ(objectiveScore(c, Objective::Ed2p), 75.0);
    EXPECT_DOUBLE_EQ(objectiveScore(c, Objective::E2dp), 45.0);
}

TEST(Objective, EdpWrapperIsPassThrough)
{
    // Edp keeps the model's own scalar, even where it is not
    // energy * latency (a combined sparsity-aware score).
    CostResult c;
    c.valid = true;
    c.energy_uj = 2.0;
    c.latency_cycles = 10.0;
    c.edp = 7.0;
    applyObjective(c, Objective::Edp);
    EXPECT_DOUBLE_EQ(c.edp, 7.0);
}

TEST(Objective, WrapperRewritesScalarButKeepsComponents)
{
    CostResult c;
    c.valid = true;
    c.energy_uj = 2.0;
    c.latency_cycles = 10.0;
    c.edp = 20.0;
    applyObjective(c, Objective::Latency);
    EXPECT_DOUBLE_EQ(c.edp, 10.0);       // now the latency score
    EXPECT_DOUBLE_EQ(c.energy_uj, 2.0);  // components preserved
}

TEST(Objective, InvalidCostsPassThroughUnchanged)
{
    CostResult c;
    c.valid = false;
    c.edp = std::numeric_limits<double>::infinity();
    applyObjective(c, Objective::Energy);
    EXPECT_TRUE(std::isinf(c.edp));
}

TEST(Objective, SearchTargetsChangeTheWinner)
{
    // Optimizing latency-only should find a mapping with latency no
    // worse (and usually better) than the energy-only winner, and vice
    // versa for energy.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    auto bestUnder = [&](Objective o) {
        const EvalFn eval = [&](const Mapping &m) {
            CostResult c = CostModel::evaluate(wl, arch, m);
            applyObjective(c, o);
            return c;
        };
        GammaConfig cfg;
        cfg.multi_objective = false;
        GammaMapper gamma(cfg);
        SearchBudget budget;
        budget.max_samples = 1500;
        Rng rng(5);
        const SearchResult r = gamma.search(space, eval, budget, rng);
        // Re-evaluate with the plain model to get true components.
        return CostModel::evaluate(wl, arch, r.best_mapping);
    };

    const CostResult lat_best = bestUnder(Objective::Latency);
    const CostResult eng_best = bestUnder(Objective::Energy);
    EXPECT_LE(lat_best.latency_cycles, eng_best.latency_cycles * 1.001);
    EXPECT_LE(eng_best.energy_uj, lat_best.energy_uj * 1.001);
}

} // namespace
} // namespace mse
