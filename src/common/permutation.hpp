/**
 * @file
 * Permutation helpers for loop-order exploration.
 *
 * A loop order at a tiling level is a permutation of the workload's
 * dimension indices (outermost first). Mappers need to sample, perturb,
 * enumerate and canonically index such permutations.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace mse {

class Rng;

/** The identity permutation [0, 1, ..., n-1]. */
std::vector<int> identityPermutation(int n);

/** True iff perm is a permutation of [0, perm.size()). */
bool isPermutation(const std::vector<int> &perm);

/** The same check over any sized range of integers (a Mapping row). */
template <typename Range>
bool
isPermutation(const Range &perm)
{
    const size_t n = std::size(perm);
    std::vector<bool> seen(n, false);
    for (const auto v : perm) {
        if (v < 0 || static_cast<size_t>(v) >= n ||
            seen[static_cast<size_t>(v)]) {
            return false;
        }
        seen[static_cast<size_t>(v)] = true;
    }
    return true;
}

/**
 * Overwrite perm[0, n) with a uniformly random permutation of [0, n):
 * the identity, shuffled by Rng::shuffle.
 */
void randomPermutationInto(int64_t *perm, int n, Rng &rng);

/**
 * Lexicographic rank of a permutation in [0, n!). Factorial-number-system
 * encoding; n must be small enough that n! fits in uint64_t (n <= 20).
 */
uint64_t permutationRank(const std::vector<int> &perm);

/** Inverse of permutationRank. */
std::vector<int> permutationFromRank(int n, uint64_t rank);

/** n! as uint64_t (n <= 20). */
uint64_t factorial(int n);

} // namespace mse
