/**
 * @file
 * Integer factorization helpers underpinning tile-size exploration.
 *
 * A mapping assigns each problem dimension a tuple of per-level tile
 * factors whose product equals the dimension bound. Enumerating, sampling
 * and repairing such tuples is the workhorse of every mapper, so the
 * helpers live here in one audited place.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mse {

class Rng;

/**
 * FNV-1a 64-bit hash of a byte string. Used wherever a stable,
 * implementation-independent digest of a signature string is needed
 * (per-job RNG seeds, store keys, short display ids) — std::hash is
 * implementation-defined and would break cross-build reproducibility.
 */
constexpr uint64_t
fnv1a64(std::string_view s)
{
    uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * splitmix64 finalizer: a strong bijective mix applied once at the end
 * of a cheap hash, so inputs that differ only in their last bytes
 * still spread over the whole 64-bit range.
 */
constexpr uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** fnv1a64 rendered as a fixed-width 16-digit hex string. */
std::string fnv1a64Hex(std::string_view s);

/** All positive divisors of n, ascending. Requires n >= 1. */
std::vector<int64_t> divisorsOf(int64_t n);

/**
 * The divisor of n closest to target (ties resolved toward the smaller
 * divisor). Used to repair tile factors after warm-start scaling.
 */
int64_t nearestDivisor(int64_t n, int64_t target);

/**
 * Count ordered factorizations of n into exactly k positive factors
 * (factors of 1 allowed). This is the per-dimension tile sub-space size
 * used by the map-space size computation of Sec. 4.2.
 */
double countOrderedFactorizations(int64_t n, int k);

/**
 * Enumerate all ordered factorizations of n into exactly k factors.
 * Intended for small n / k (tests and exhaustive sweeps).
 */
std::vector<std::vector<int64_t>> enumerateOrderedFactorizations(int64_t n, int k);

/**
 * Sample one ordered factorization of n into k factors uniformly over the
 * recursive divisor tree (not exactly uniform over all tuples, but cheap,
 * full-support, and adequate for random search).
 */
std::vector<int64_t> sampleFactorization(int64_t n, int k, Rng &rng);

/** Greatest common divisor. */
int64_t gcd64(int64_t a, int64_t b);

/** Ceiling division for positive integers. */
inline int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** log2 of a double-precision count that may be astronomically large. */
double log10OfProduct(const std::vector<double> &factors);

} // namespace mse
