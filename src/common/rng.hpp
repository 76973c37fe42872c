/**
 * @file
 * Deterministic random number generation used across the MSE framework.
 *
 * Every stochastic component (mappers, workload generators, surrogate
 * training) draws from an explicitly seeded Rng so that experiments are
 * reproducible run-to-run.
 *
 * The stream contract: Rng(seed) produces exactly the values that
 * std::mt19937_64(seed) fed to libstdc++ 12's uniform_int_distribution,
 * uniform_real_distribution and normal_distribution would. The engine
 * and the integer/real samplers are implemented here because the
 * library versions dominate a mapper's own cost (the engine's twist
 * branches on a coin flip per state word; the real sampler divides and
 * converts through a branchy path), and the mapper loop draws 20-50
 * values per candidate. tests/test_rng.cpp holds the std versions as
 * the oracle.
 */
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace mse {

/**
 * MT19937-64: the seeding, twist and tempering of std::mt19937_64, with
 * a branchless twist. A UniformRandomBitGenerator, so std distributions
 * accept it.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed) { this->seed(seed); }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~uint64_t{0}; }

    void
    seed(uint64_t s)
    {
        x_[0] = s;
        for (int i = 1; i < kN; ++i) {
            const uint64_t prev = x_[i - 1];
            x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) +
                static_cast<uint64_t>(i);
        }
        pos_ = kN;
    }

    result_type
    operator()()
    {
        if (pos_ >= kN)
            twist();
        uint64_t z = x_[pos_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr int kN = 312;

    /** Regenerate all kN state words (libstdc++'s _M_gen_rand). */
    void twist();

    uint64_t x_[kN];
    int pos_;
};

/**
 * Seeded generator with the samplers the framework uses. Each sampler
 * consumes the engine exactly as its std counterpart does (see the file
 * comment), so a stream is the same whichever implementation drew it.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eedULL) : engine_(seed) {}

    /** Re-seed the generator. */
    void seed(uint64_t s) { engine_.seed(s); }

    /** Uniform integer in [lo, hi] (inclusive). */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        const uint64_t range =
            static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
        const uint64_t offset =
            range == ~uint64_t{0} ? engine_() : below(range + 1);
        return static_cast<int64_t>(static_cast<uint64_t>(lo) + offset);
    }

    /** Uniform index in [0, n). Requires n > 0. */
    size_t index(size_t n) { return static_cast<size_t>(below(n)); }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        return toUnit(engine_()) * (hi - lo) + lo;
    }

    /** Standard normal sample scaled by stddev. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        // A fresh distribution per call discards the polar method's
        // spare value, so every call consumes whole draw pairs.
        std::normal_distribution<double> d(mean, stddev);
        return d(engine_);
    }

    /** Bernoulli trial with probability p of true. */
    bool chance(double p) { return uniformReal() < p; }

    /** Pick a uniformly random element of a non-empty vector. */
    template <typename T>
    const T &
    pick(const std::vector<T> &v)
    {
        return v[index(v.size())];
    }

    /** Fisher-Yates shuffle of first[0, n). */
    template <typename T>
    void
    shuffle(T *first, size_t n)
    {
        for (size_t i = n; i > 1; --i) {
            std::swap(first[i - 1], first[index(i)]);
        }
    }

    /** Fisher-Yates shuffle of a whole vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        shuffle(v.data(), v.size());
    }

    /**
     * One engine draw z mapped to [0, 1) as generate_canonical<double,
     * 53> maps it: z / 2^64 rounded once, clamped below 1. The two
     * halves of z convert exactly (as signed values) and their sum
     * rounds once, like double(z), without the branch the compiler
     * emits for an unsigned 64-bit conversion.
     */
    static double
    toUnit(uint64_t z)
    {
        const double zd =
            static_cast<double>(static_cast<int64_t>(z >> 32)) * 0x1p32 +
            static_cast<double>(static_cast<int64_t>(z & 0xffffffffULL));
        const double u = zd * 0x1p-64;
        return u < 1.0 ? u : 0x1.fffffffffffffp-1;
    }

  private:
    /**
     * Uniform value in [0, range), range >= 1: Lemire's multiply-shift
     * with rejection, as libstdc++ 12's uniform_int_distribution does
     * for a 64-bit engine.
     */
    uint64_t
    below(uint64_t range)
    {
        unsigned __int128 product =
            static_cast<unsigned __int128>(engine_()) * range;
        uint64_t low = static_cast<uint64_t>(product);
        if (low < range) {
            const uint64_t threshold = (0 - range) % range;
            while (low < threshold) {
                product = static_cast<unsigned __int128>(engine_()) * range;
                low = static_cast<uint64_t>(product);
            }
        }
        return static_cast<uint64_t>(product >> 64);
    }

    Mt19937_64 engine_;
};

} // namespace mse
