/**
 * @file
 * Deterministic random number generation used across the MSE framework.
 *
 * Every stochastic component (mappers, workload generators, surrogate
 * training) draws from an explicitly seeded Rng so that experiments are
 * reproducible run-to-run.
 */
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace mse {

/**
 * A small wrapper around std::mt19937_64 with convenience samplers.
 *
 * The wrapper exists so the rest of the codebase never constructs ad-hoc
 * distributions and so the engine type can be swapped in one place.
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
        std::uniform_int_distribution<int64_t> d(lo, hi);
        return d(engine_);
    }

    /** Uniform index in [0, n). Requires n > 0. */
    size_t index(size_t n) { return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(n) - 1)); }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        return d(engine_);
    }

    /** Standard normal sample scaled by stddev. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
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

    /** Access the underlying engine (for std:: algorithms). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace mse
