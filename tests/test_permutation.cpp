#include <gtest/gtest.h>

#include "common/permutation.hpp"
#include "common/rng.hpp"

namespace mse {
namespace {

std::vector<int>
randomOrder(int n, Rng &rng)
{
    std::vector<int64_t> p(static_cast<size_t>(n));
    randomPermutationInto(p.data(), n, rng);
    return {p.begin(), p.end()};
}

TEST(Permutation, IdentityIsPermutation)
{
    const auto p = identityPermutation(5);
    EXPECT_EQ(p, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(isPermutation(p));
}

TEST(Permutation, RandomIsAlwaysValid)
{
    Rng rng(3);
    for (int n = 1; n <= 8; ++n) {
        for (int i = 0; i < 20; ++i)
            EXPECT_TRUE(isPermutation(randomOrder(n, rng)));
    }
}

TEST(Permutation, RandomIsTheShuffledIdentity)
{
    Rng a(5), b(5);
    for (int n = 1; n <= 8; ++n) {
        auto expect = identityPermutation(n);
        b.shuffle(expect);
        EXPECT_EQ(randomOrder(n, a), expect);
    }
}

TEST(Permutation, DetectsInvalid)
{
    EXPECT_FALSE(isPermutation({0, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 2}));
    EXPECT_FALSE(isPermutation({-1, 0}));
    EXPECT_TRUE(isPermutation({}));
}

TEST(Factorial, KnownValues)
{
    EXPECT_EQ(factorial(0), 1u);
    EXPECT_EQ(factorial(1), 1u);
    EXPECT_EQ(factorial(7), 5040u);
    EXPECT_EQ(factorial(12), 479001600u);
}

TEST(PermutationRank, IdentityIsRankZero)
{
    EXPECT_EQ(permutationRank(identityPermutation(7)), 0u);
}

TEST(PermutationRank, ReverseIsMaxRank)
{
    EXPECT_EQ(permutationRank({3, 2, 1, 0}), factorial(4) - 1);
}

TEST(PermutationRank, RoundTripExhaustiveN4)
{
    for (uint64_t r = 0; r < factorial(4); ++r) {
        const auto p = permutationFromRank(4, r);
        EXPECT_TRUE(isPermutation(p));
        EXPECT_EQ(permutationRank(p), r);
    }
}

TEST(PermutationRank, RoundTripSampledN7)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const auto p = randomOrder(7, rng);
        EXPECT_EQ(permutationFromRank(7, permutationRank(p)), p);
    }
}

TEST(PermutationFromRank, DistinctRanksDistinctPerms)
{
    EXPECT_NE(permutationFromRank(5, 17), permutationFromRank(5, 18));
}

} // namespace
} // namespace mse
