#include <gtest/gtest.h>

#include <unordered_set>

#include "common/permutation.hpp"
#include "mappers/gamma.hpp"
#include "mappers/order_sweep.hpp"
#include "mappers/random_pruned.hpp"
#include "mappers/standard_ga.hpp"
#include "test_helpers.hpp"
#include "workload/model_zoo.hpp"

namespace mse {
namespace {

EvalFn
denseEval(const Workload &wl, const ArchConfig &arch)
{
    return [wl, arch](const Mapping &m) {
        return CostModel::evaluate(wl, arch, m);
    };
}

TEST(RandomPruned, FindsLegalMappingWithinBudget)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    RandomPrunedMapper mapper;
    SearchBudget budget;
    budget.max_samples = 300;
    Rng rng(1);
    const SearchResult r =
        mapper.search(space, denseEval(wl, arch), budget, rng);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(validateMapping(wl, arch, r.best_mapping), MappingError::Ok);
    EXPECT_LE(r.log.samples, budget.max_samples);
    EXPECT_EQ(r.log.best_edp_per_sample.size(), r.log.samples);
}

TEST(RandomPruned, BestSoFarIsMonotone)
{
    const Workload wl = resnetConv3();
    const ArchConfig arch = accelA();
    MapSpace space(wl, arch);
    RandomPrunedMapper mapper;
    SearchBudget budget;
    budget.max_samples = 500;
    Rng rng(2);
    const SearchResult r =
        mapper.search(space, denseEval(wl, arch), budget, rng);
    for (size_t i = 1; i < r.log.best_edp_per_sample.size(); ++i) {
        EXPECT_LE(r.log.best_edp_per_sample[i],
                  r.log.best_edp_per_sample[i - 1]);
    }
}

TEST(RandomPruned, DedupeSavesBudgetOnTinySpaces)
{
    const Workload wl = makeGemm("g", 1, 2, 2, 1);
    const ArchConfig arch = test::flatArch();
    MapSpace space(wl, arch);
    RandomPrunedMapper mapper(/*dedupe=*/true);
    SearchBudget budget;
    budget.max_samples = 100000;
    Rng rng(3);
    const SearchResult r =
        mapper.search(space, denseEval(wl, arch), budget, rng);
    // The tiny space has far fewer canonical mappings than the budget.
    EXPECT_LT(r.log.samples, 5000u);
    EXPECT_TRUE(r.found());
}

TEST(CanonicalMappingSet, VerdictsMatchCanonicalKeyStrings)
{
    // A tiny space (many exact duplicates) plus, for each draw, variants
    // that permute unit-factor loops (canonically equal), add an explicit
    // keep-everything mask or a bypass (canonicalKey tells those apart),
    // or swap two orders outright.
    const Workload wl = test::tinyConv();
    const ArchConfig arch = test::miniNpu();
    MapSpace space(wl, arch);
    Rng rng(17);
    CanonicalMappingSet set;
    std::unordered_set<std::string> keys;
    size_t checked = 0, duplicates = 0;
    const auto check = [&](const Mapping &m) {
        const bool fresh = keys.insert(m.canonicalKey()).second;
        ASSERT_EQ(set.insert(m), fresh) << m.canonicalKey();
        duplicates += !fresh;
        ++checked;
    };
    for (int i = 0; i < 4000; ++i) {
        const Mapping m = space.randomMapping(rng);
        check(m);
        Mapping v = m;
        const int l = static_cast<int>(rng.index(v.numLevels()));
        rng.shuffle(v.level(l).order.data(), v.numDims());
        check(v);
        Mapping k = m;
        const int kl = static_cast<int>(rng.index(k.numLevels() - 1));
        k.setKeep(kl, static_cast<int>(rng.index(wl.numTensors())),
                  rng.chance(0.5), wl.numTensors());
        check(k);
    }
    EXPECT_EQ(set.size(), keys.size());
    EXPECT_GT(duplicates, checked / 40); // the duplicate path runs
}

TEST(GammaOperators, MutateTilePreservesProducts)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        Mapping m = space.randomMapping(rng);
        GammaMapper::mutateTile(space, m, rng);
        for (int d = 0; d < wl.numDims(); ++d)
            ASSERT_EQ(m.totalFactor(d), wl.bound(d));
    }
}

TEST(GammaOperators, MutateOrderKeepsPermutation)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(5);
    Mapping m = space.randomMapping(rng);
    for (int i = 0; i < 50; ++i) {
        GammaMapper::mutateOrder(m, rng);
        for (int l = 0; l < m.numLevels(); ++l)
            ASSERT_TRUE(isPermutation(m.level(l).order));
    }
}

TEST(GammaOperators, MutateParallelRespectsFanoutAndProducts)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        Mapping m = space.randomMapping(rng);
        GammaMapper::mutateParallel(space, m, rng);
        for (int d = 0; d < wl.numDims(); ++d)
            ASSERT_EQ(m.totalFactor(d), wl.bound(d));
        for (int l = 0; l < m.numLevels(); ++l)
            ASSERT_LE(m.spatialProduct(l), arch.levels[l].fanout);
    }
}

TEST(GammaOperators, CrossoverIsFactorLegalByConstruction)
{
    const Workload wl = inceptionConv2();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const Mapping a = space.randomMapping(rng);
        const Mapping b = space.randomMapping(rng);
        const Mapping child = GammaMapper::crossover(a, b, rng);
        for (int d = 0; d < wl.numDims(); ++d)
            ASSERT_EQ(child.totalFactor(d), wl.bound(d));
        for (int l = 0; l < child.numLevels(); ++l)
            ASSERT_TRUE(isPermutation(child.level(l).order));
    }
}

TEST(Gamma, BeatsRandomAtEqualSampleBudget)
{
    // The headline sampling-efficiency claim (Fig. 3 top): feedback
    // search finds better mappings than random within the same number
    // of cost-model queries.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    SearchBudget budget;
    budget.max_samples = 1500;

    double gamma_wins = 0;
    for (uint64_t seed = 0; seed < 3; ++seed) {
        Rng rng_g(100 + seed), rng_r(200 + seed);
        GammaMapper gamma;
        RandomPrunedMapper random;
        const double g =
            gamma.search(space, denseEval(wl, arch), budget, rng_g)
                .best_cost.edp;
        const double r =
            random.search(space, denseEval(wl, arch), budget, rng_r)
                .best_cost.edp;
        if (g < r)
            ++gamma_wins;
    }
    EXPECT_GE(gamma_wins, 2);
}

TEST(Gamma, RespectsOperatorMasks)
{
    // With only tile mutation enabled, orders of the best mapping must
    // all come from the initial random population (we can't check that
    // directly, but the search must still run and return legal results).
    const Workload wl = resnetConv3();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    GammaConfig cfg;
    cfg.enable_order = false;
    cfg.enable_parallel = false;
    cfg.enable_crossover = false;
    GammaMapper gamma(cfg);
    SearchBudget budget;
    budget.max_samples = 400;
    Rng rng(9);
    const SearchResult r =
        gamma.search(space, denseEval(wl, arch), budget, rng);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(validateMapping(wl, arch, r.best_mapping), MappingError::Ok);
}

TEST(Gamma, SeedsEnterInitialPopulation)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(10);
    // Build a strong seed by running a short search first.
    GammaMapper warmup;
    SearchBudget small;
    small.max_samples = 600;
    const SearchResult base =
        warmup.search(space, denseEval(wl, arch), small, rng);
    ASSERT_TRUE(base.found());

    // A fresh search seeded with the optimum must start at least as good
    // after its first generation.
    GammaMapper seeded;
    seeded.setInitialMappings({base.best_mapping});
    SearchBudget tiny;
    tiny.max_samples = 30;
    Rng rng2(11);
    const SearchResult r =
        seeded.search(space, denseEval(wl, arch), tiny, rng2);
    ASSERT_TRUE(r.found());
    EXPECT_LE(r.best_cost.edp, base.best_cost.edp * 1.0001);
}

TEST(StandardGa, RunsAndReturnsLegalMapping)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    StandardGaMapper ga;
    SearchBudget budget;
    budget.max_samples = 500;
    Rng rng(12);
    const SearchResult r =
        ga.search(space, denseEval(wl, arch), budget, rng);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(validateMapping(wl, arch, r.best_mapping), MappingError::Ok);
}

TEST(Gamma, OutperformsStandardGa)
{
    // Fig. 6: full-fledged Gamma beats the standard GA.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    SearchBudget budget;
    budget.max_samples = 1500;
    int wins = 0;
    for (uint64_t seed = 0; seed < 3; ++seed) {
        Rng rg(300 + seed), rs(400 + seed);
        GammaMapper gamma;
        StandardGaMapper std_ga;
        const double g =
            gamma.search(space, denseEval(wl, arch), budget, rg)
                .best_cost.edp;
        const double s =
            std_ga.search(space, denseEval(wl, arch), budget, rs)
                .best_cost.edp;
        if (g <= s)
            ++wins;
    }
    EXPECT_GE(wins, 2);
}

TEST(OrderSweep, EnumeratesAllPermutations)
{
    const Workload wl = test::tinyGemm(); // 4 dims -> 24 permutations
    const ArchConfig arch = test::flatArch();
    MapSpace space(wl, arch);
    const Mapping base = test::allAtTop(wl, arch);
    const auto pts =
        sweepUniformOrders(space, base, denseEval(wl, arch));
    EXPECT_EQ(pts.size(), 24u);
    for (const auto &p : pts)
        EXPECT_TRUE(isPermutation(p.order));
}

TEST(OrderSweep, ManyOrdersTieInEdp)
{
    // The Fig. 7 observation: d! orders collapse into a small number of
    // distinct EDP groups because only reuse-truncation points matter.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(13);
    const Mapping base = space.randomMapping(rng);
    const auto pts =
        sweepUniformOrders(space, base, denseEval(wl, arch));
    EXPECT_EQ(pts.size(), 5040u);
    const auto groups = distinctEdps(pts, 1e-6);
    EXPECT_LT(groups.size(), 200u);
    EXPECT_GE(groups.size(), 2u);
}

TEST(DistinctEdps, MergesWithinTolerance)
{
    std::vector<OrderSweepPoint> pts;
    pts.push_back({0, {}, 1.0});
    pts.push_back({1, {}, 1.0 + 1e-12});
    pts.push_back({2, {}, 2.0});
    const auto g = distinctEdps(pts, 1e-9);
    EXPECT_EQ(g.size(), 2u);
}

} // namespace
} // namespace mse
