#include <gtest/gtest.h>

#include <iterator>
#include <limits>

#include "common/pareto.hpp"
#include "common/rng.hpp"

namespace mse {
namespace {

TEST(Dominates, StrictAndEqualCases)
{
    EXPECT_TRUE(dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(dominates({1, 2}, {2, 2}));
    EXPECT_FALSE(dominates({1, 3}, {2, 2}));
    EXPECT_FALSE(dominates({2, 2}, {2, 2})); // equal: not strict
    EXPECT_FALSE(dominates({2, 2}, {1, 1}));
}

TEST(ParetoRanks, AllNondominated)
{
    const auto r = paretoRanks({{1, 3}, {2, 2}, {3, 1}});
    EXPECT_EQ(r, (std::vector<int>{0, 0, 0}));
}

TEST(ParetoRanks, LayeredFronts)
{
    // (1,1) dominates everything; (2,2) dominates (3,3).
    const auto r = paretoRanks({{1, 1}, {2, 2}, {3, 3}});
    EXPECT_EQ(r, (std::vector<int>{0, 1, 2}));
}

TEST(ParetoRanks, MixedFront)
{
    const auto r = paretoRanks({{1, 4}, {4, 1}, {2, 2}, {3, 3}});
    EXPECT_EQ(r[0], 0);
    EXPECT_EQ(r[1], 0);
    EXPECT_EQ(r[2], 0);
    EXPECT_EQ(r[3], 1);
}

/** Front-by-front peeling, the O(n^3) definition of Pareto rank. */
std::vector<int>
peelingRanks(const std::vector<ObjectivePoint> &points)
{
    const size_t n = points.size();
    std::vector<int> rank(n, -1);
    size_t remaining = n;
    for (int current = 0; remaining > 0; ++current) {
        std::vector<size_t> front;
        for (size_t i = 0; i < n; ++i) {
            if (rank[i] >= 0)
                continue;
            bool dominated = false;
            for (size_t j = 0; j < n && !dominated; ++j) {
                dominated = j != i && rank[j] < 0 &&
                    dominates(points[j], points[i]);
            }
            if (!dominated)
                front.push_back(i);
        }
        for (size_t i : front)
            rank[i] = current;
        remaining -= front.size();
    }
    return rank;
}

TEST(ParetoRanks, MatchesPeelingOnRandomPopulations)
{
    // Coordinates come from a small grid so ties and exact duplicates
    // are common; some are +/-inf, as invalid mappings' costs are.
    const double inf = std::numeric_limits<double>::infinity();
    const double grid[] = {-inf, 0.0, 1.0, 2.0, 2.5, 3.0, 7.0, inf};
    Rng rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t n = rng.index(40);
        std::vector<ObjectivePoint> pts(n);
        for (auto &p : pts) {
            p[0] = grid[rng.index(std::size(grid))];
            p[1] = grid[rng.index(std::size(grid))];
        }
        if (n > 1 && rng.chance(0.3))
            pts[n - 1] = pts[0]; // exact duplicate
        ASSERT_EQ(paretoRanks(pts), peelingRanks(pts)) << "trial " << trial;
    }
}

TEST(ParetoRanks, DuplicatesAndInfinitiesShareRanks)
{
    const double inf = std::numeric_limits<double>::infinity();
    const auto r = paretoRanks(
        {{inf, inf}, {1, 1}, {inf, inf}, {1, 1}, {2, inf}, {inf, 2}});
    EXPECT_EQ(r, (std::vector<int>{2, 0, 2, 0, 1, 1}));
}

TEST(ParetoArchive, InsertKeepsNondominated)
{
    ParetoArchive a;
    EXPECT_TRUE(a.insert(1, 4, 0));
    EXPECT_TRUE(a.insert(4, 1, 1));
    EXPECT_TRUE(a.insert(2, 2, 2));
    EXPECT_EQ(a.entries().size(), 3u);
}

TEST(ParetoArchive, RejectsDominated)
{
    ParetoArchive a;
    a.insert(1, 1, 0);
    EXPECT_FALSE(a.insert(2, 2, 1));
    EXPECT_FALSE(a.insert(1, 1, 2)); // duplicate point is not an improvement
    EXPECT_EQ(a.entries().size(), 1u);
}

TEST(ParetoArchive, EvictsNewlyDominated)
{
    ParetoArchive a;
    a.insert(3, 3, 0);
    a.insert(2, 4, 1);
    EXPECT_TRUE(a.insert(1, 1, 2)); // dominates both
    ASSERT_EQ(a.entries().size(), 1u);
    EXPECT_EQ(a.entries()[0].payload, 2u);
}

TEST(ParetoArchive, BestEdp)
{
    ParetoArchive a;
    EXPECT_EQ(a.bestEdpIndex(), -1);
    a.insert(1, 8, 0); // EDP 8
    a.insert(2, 3, 1); // EDP 6 <- best
    a.insert(6, 1, 2); // EDP 6 tie, first wins
    const int best = a.bestEdpIndex();
    ASSERT_GE(best, 0);
    EXPECT_EQ(a.entries()[static_cast<size_t>(best)].payload, 1u);
}

} // namespace
} // namespace mse
