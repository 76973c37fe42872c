/**
 * @file
 * Small helpers shared by the benchmark client: a monotonic clock, a
 * seedable integer stream, order statistics, and a streaming digest.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * splitmix64: every random choice the benchmark makes comes from one of
 * these, seeded from --seed, so the same seed gives the same inputs on
 * every platform (no std::*_distribution involved).
 */
class Stream
{
  public:
    explicit Stream(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    size_t below(size_t n) { return static_cast<size_t>(next() % n); }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    uint64_t s_;
};

/** Linear-interpolated quantile of unsorted values (q in [0, 1]). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * The highest of a fixed ladder of percentiles that still has at least
 * `min_beyond` samples beyond it. Ten is the minimum for a tail
 * estimate; 25 makes a tail of single timings vary far less from run to
 * run.
 */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
    size_t beyond = 0;
};

inline Tail
tailOf(const std::vector<double> &v, double min_beyond = 25.0)
{
    Tail t;
    for (const double p : {50.0, 90.0, 95.0, 99.0}) {
        const double beyond =
            static_cast<double>(v.size()) * (1.0 - p / 100.0);
        if (beyond < min_beyond)
            break;
        t.percentile = p;
        t.beyond = static_cast<size_t>(beyond);
    }
    t.value = quantile(v, t.percentile / 100.0);
    return t;
}

inline double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

inline double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/** FNV-1a over a byte stream, fed piecewise. */
class Digest
{
  public:
    void
    add(std::string_view s)
    {
        for (const char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
        h_ ^= 0xff; // Field separator.
        h_ *= 0x100000001b3ULL;
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** %.17g: the bit-exact text of a double. */
inline std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
