/**
 * @file
 * Rng's samplers, and the oracle for its stream contract: the same values
 * as std::mt19937_64 fed to libstdc++'s distributions.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <set>

#include "common/rng.hpp"

namespace mse {
namespace {

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
}

TEST(Rng, SeedsDiverge)
{
    Rng a(1), b(2);
    bool differed = false;
    for (int i = 0; i < 10 && !differed; ++i)
        differed = a.uniformInt(0, 1 << 30) != b.uniformInt(0, 1 << 30);
    EXPECT_TRUE(differed);
}

TEST(Rng, UniformIntBoundsInclusive)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const int64_t v = rng.uniformInt(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // all values reachable
}

TEST(Rng, IndexCoversRange)
{
    Rng rng(4);
    std::set<size_t> seen;
    for (int i = 0; i < 300; ++i)
        seen.insert(rng.index(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformRealInHalfOpenInterval)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniformReal(-1.0, 1.0);
        EXPECT_GE(v, -1.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(6);
    double sum = 0, sum2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian(2.0, 3.0);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(8);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    auto resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

TEST(Rng, PickReturnsMember)
{
    Rng rng(9);
    const std::vector<int> v = {10, 20, 30};
    for (int i = 0; i < 30; ++i) {
        const int p = rng.pick(v);
        EXPECT_TRUE(p == 10 || p == 20 || p == 30);
    }
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(11);
    const int64_t first = rng.uniformInt(0, 1 << 20);
    rng.uniformInt(0, 1 << 20);
    rng.seed(11);
    EXPECT_EQ(rng.uniformInt(0, 1 << 20), first);
}

// ---- Oracle: the stream contract against the standard library ----

TEST(RngOracle, EngineMatchesStdMt19937_64)
{
    // The engine is specified by the standard, so this holds with any
    // standard library.
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{0x5eed},
                          ~uint64_t{0}}) {
        Mt19937_64 ours(seed);
        std::mt19937_64 ref(seed);
        size_t mismatches = 0;
        for (int i = 0; i < 1000000; ++i)
            mismatches += ours() != ref();
        ours.seed(seed ^ 0xabcdef);
        ref.seed(seed ^ 0xabcdef);
        for (int i = 0; i < 1000; ++i)
            mismatches += ours() != ref();
        EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    }
}

/** A bit generator that returns one fixed value. */
struct FixedBits
{
    using result_type = uint64_t;
    uint64_t z;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }
    result_type operator()() { return z; }
};

TEST(RngOracle, UnitConversionRoundsOnceAndClampsBelowOne)
{
    const uint64_t two63 = uint64_t{1} << 63;
    const std::vector<uint64_t> edges = {
        0,
        1,
        ~uint64_t{0},                // rounds to 2^64: clamped below 1
        ~uint64_t{0} - 1023,         // tie below 2^64: rounds up, clamped
        ~uint64_t{0} - 1024,         // just below that tie: rounds down
        (uint64_t{1} << 53) + 1,     // first odd value a double misses
        (uint64_t{1} << 53) + 3,
        two63 + (uint64_t{1} << 10), // low word at a tie: to even (down)
        two63 + 3 * (uint64_t{1} << 10), // tie: to even (up)
        two63 + (uint64_t{1} << 10) + 1, // just above the tie
        0xffffffffULL,               // high word zero
        0x100000000ULL,              // low word zero
        0x8000000080000000ULL,
    };
    for (uint64_t z : edges) {
        const double ours = Rng::toUnit(z);
        EXPECT_LT(ours, 1.0) << z;
        const double exact =
            std::min(static_cast<double>(z) * 0x1p-64,
                     std::nextafter(1.0, 0.0));
        EXPECT_EQ(ours, exact) << z;
#ifdef __GLIBCXX__
        FixedBits bits{z};
        EXPECT_EQ(ours, (std::generate_canonical<double, 53>(bits))) << z;
#endif
    }
}

#ifdef __GLIBCXX__
// The distributions are implementation-defined; Rng reproduces
// libstdc++'s, so the comparison only holds there.

/** Bit-exact double equality (distinguishes -0.0, compares NaN bits). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(RngOracle, EverySamplerMatchesStdDistributions)
{
    using Int = std::uniform_int_distribution<int64_t>;
    using Index = std::uniform_int_distribution<uint64_t>;
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    const uint64_t two63 = uint64_t{1} << 63;
    for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{0x5eed},
                          uint64_t{1} << 40}) {
        Rng ours(seed);
        std::mt19937_64 ref(seed);
        size_t mismatches = 0;
        int first_bad = -1;
        for (int i = 0; i < 1200000; ++i) {
            if (i == 600000) {
                // seed() restarts both streams mid-way.
                ours.seed(seed + 99);
                ref.seed(seed + 99);
            }
            bool same = true;
            switch (i % 14) {
              case 0:
                same = ours.uniformInt(0, 1) == Int(0, 1)(ref);
                break;
              case 1: // negative lo
                same = ours.uniformInt(-7, 1000) == Int(-7, 1000)(ref);
                break;
              case 2: // the full int64 span: the raw draw
                same = ours.uniformInt(kMin, kMax) == Int(kMin, kMax)(ref);
                break;
              case 3:
                same = ours.uniformInt(kMin / 2, kMax / 2 + 3) ==
                    Int(kMin / 2, kMax / 2 + 3)(ref);
                break;
              case 4:
                same = ours.index(1) == Index(0, 0)(ref);
                break;
              case 5: { // powers of two, 1 .. 2^63
                const uint64_t n = uint64_t{1} << (i / 14 % 64);
                same = ours.index(n) == Index(0, n - 1)(ref);
                break;
              }
              case 6: { // n near 2^63, where rejection is likeliest
                const uint64_t n = two63 - 1 + (i / 14 % 3);
                same = ours.index(n) == Index(0, n - 1)(ref);
                break;
              }
              case 7: {
                const uint64_t n = 1 + i / 14 % 1000;
                same = ours.index(n) == Index(0, n - 1)(ref);
                break;
              }
              case 8:
                same = sameBits(ours.uniformReal(),
                                std::uniform_real_distribution<double>(
                                    0.0, 1.0)(ref));
                break;
              case 9:
                same = sameBits(ours.uniformReal(-2.5, 7.0),
                                std::uniform_real_distribution<double>(
                                    -2.5, 7.0)(ref));
                break;
              case 10:
                same = sameBits(ours.uniformReal(1e6, 1e6 + 3.25),
                                std::uniform_real_distribution<double>(
                                    1e6, 1e6 + 3.25)(ref));
                break;
              case 11:
                same = ours.chance(0.3) ==
                    (std::uniform_real_distribution<double>(0.0, 1.0)(
                         ref) < 0.3);
                break;
              case 12:
                same = sameBits(ours.gaussian(2.0, 3.0),
                                std::normal_distribution<double>(
                                    2.0, 3.0)(ref));
                break;
              case 13: { // shuffle is n-1 index draws
                int a[5] = {0, 1, 2, 3, 4};
                int b[5] = {0, 1, 2, 3, 4};
                ours.shuffle(a, 5);
                for (size_t k = 5; k > 1; --k)
                    std::swap(b[k - 1], b[Index(0, k - 1)(ref)]);
                same = std::equal(a, a + 5, b);
                break;
              }
            }
            if (!same && mismatches++ == 0)
                first_bad = i;
        }
        EXPECT_EQ(mismatches, 0u)
            << "seed " << seed << ", first mismatch at call " << first_bad;
    }
}
#endif

} // namespace
} // namespace mse
