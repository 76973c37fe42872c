#include "common/permutation.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace mse {

std::vector<int>
identityPermutation(int n)
{
    std::vector<int> p(n);
    std::iota(p.begin(), p.end(), 0);
    return p;
}

void
randomPermutationInto(int64_t *perm, int n, Rng &rng)
{
    std::iota(perm, perm + n, int64_t{0});
    rng.shuffle(perm, static_cast<size_t>(n));
}

bool
isPermutation(const std::vector<int> &perm)
{
    return isPermutation<std::vector<int>>(perm);
}

uint64_t
factorial(int n)
{
    uint64_t f = 1;
    for (int i = 2; i <= n; ++i)
        f *= static_cast<uint64_t>(i);
    return f;
}

uint64_t
permutationRank(const std::vector<int> &perm)
{
    const int n = static_cast<int>(perm.size());
    uint64_t rank = 0;
    for (int i = 0; i < n; ++i) {
        int smaller = 0;
        for (int j = i + 1; j < n; ++j) {
            if (perm[j] < perm[i])
                ++smaller;
        }
        rank += static_cast<uint64_t>(smaller) * factorial(n - 1 - i);
    }
    return rank;
}

std::vector<int>
permutationFromRank(int n, uint64_t rank)
{
    std::vector<int> pool = identityPermutation(n);
    std::vector<int> perm;
    perm.reserve(n);
    for (int i = 0; i < n; ++i) {
        uint64_t f = factorial(n - 1 - i);
        size_t idx = static_cast<size_t>(rank / f);
        rank %= f;
        perm.push_back(pool[idx]);
        pool.erase(pool.begin() + static_cast<long>(idx));
    }
    return perm;
}

} // namespace mse
