#include "mapping/map_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/permutation.hpp"

namespace mse {

namespace {

/** Smallest prime factor of n (n >= 2). */
int64_t
smallestPrimeFactor(int64_t n)
{
    for (int64_t p = 2; p * p <= n; ++p) {
        if (n % p == 0)
            return p;
    }
    return n;
}

/** Total resident words at level l, compressed per tensor density. */
double
residentWords(const Workload &wl, const Mapping &m, int l)
{
    double sum = 0.0;
    for (int t = 0; t < wl.numTensors(); ++t) {
        if (m.keeps(l, t))
            sum += tileFootprint(wl, m, t, l) * wl.tensor(t).density;
    }
    return sum;
}

} // namespace

MapSpace::MapSpace(Workload wl, ArchConfig arch)
    : wl_(std::move(wl)), arch_(std::move(arch))
{
    if (arch_.levels.empty())
        throw std::invalid_argument("map space: empty architecture");
    for (int l = 0; l < arch_.numLevels(); ++l) {
        if (arch_.levels[l].fanout > 1)
            spatial_levels_.push_back(l);
    }
    // Divisor closure: any factor value a mapper can produce is a
    // divisor of some bound, and divisors of divisors are divisors.
    for (int64_t b : wl_.bounds()) {
        for (int64_t d : divisorsOf(b)) {
            if (!divisor_cache_.count(d))
                divisor_cache_.emplace(d, divisorsOf(d));
        }
    }
}

const std::vector<int64_t> &
MapSpace::divisors(int64_t n) const
{
    const auto it = divisor_cache_.find(n);
    if (it != divisor_cache_.end())
        return it->second;
    // Rare fallback (values outside the closure): compute and memoize.
    return divisor_cache_.emplace(n, divisorsOf(n)).first->second;
}

void
MapSpace::repairFanout(Mapping &m) const
{
    for (int l = 0; l < numLevels(); ++l) {
        const int64_t fanout = arch_.levels[l].fanout;
        while (m.spatialProduct(l) > fanout) {
            // Fold the largest spatial factor's smallest prime back into
            // this level's temporal loop.
            int best = -1;
            for (int d = 0; d < numDims(); ++d) {
                if (m.level(l).spatial[d] > 1 &&
                    (best < 0 ||
                     m.level(l).spatial[d] > m.level(l).spatial[best])) {
                    best = d;
                }
            }
            const int64_t p = smallestPrimeFactor(m.level(l).spatial[best]);
            m.level(l).spatial[best] /= p;
            m.level(l).temporal[best] *= p;
        }
    }
}

void
MapSpace::repairCapacity(Mapping &m) const
{
    for (int l = 0; l < numLevels() - 1; ++l) {
        const int64_t cap = arch_.levels[l].capacity_words;
        if (cap <= 0)
            continue;
        while (residentWords(wl_, m, l) > static_cast<double>(cap)) {
            // Pick the dimension with the largest extent inside this tile
            // and migrate one prime factor of it up to the parent level.
            int best_dim = -1;
            int64_t best_cum = 1;
            for (int d = 0; d < numDims(); ++d) {
                const int64_t cum = m.cumulativeFactor(l, d);
                if (cum > best_cum) {
                    best_cum = cum;
                    best_dim = d;
                }
            }
            if (best_dim < 0)
                break; // minimal tile already; capacity is simply too small
            // Prefer shrinking the outermost available slot at or below l:
            // temporal at l, then spatial at l, then inner levels.
            int64_t *slot = nullptr;
            for (int ll = l; ll >= 0 && !slot; --ll) {
                if (m.level(ll).temporal[best_dim] > 1)
                    slot = &m.level(ll).temporal[best_dim];
                else if (m.level(ll).spatial[best_dim] > 1)
                    slot = &m.level(ll).spatial[best_dim];
            }
            const int64_t p = smallestPrimeFactor(*slot);
            *slot /= p;
            m.level(l + 1).temporal[best_dim] *= p;
        }
    }
}

void
MapSpace::repair(Mapping &m) const
{
    repairFanout(m);
    repairCapacity(m);
}

Mapping
MapSpace::randomMapping(Rng &rng) const
{
    const int L = numLevels();
    const int D = numDims();
    Mapping m(L, D);

    // Per-dimension factorization over temporal slots plus the spatial
    // slots of levels that actually have fanout (the cached equivalent
    // of sampleFactorization()). Slot i < L is level i's temporal
    // factor, slot L + k the k-th spatial level's spatial factor.
    const int slots = L + static_cast<int>(spatial_levels_.size());
    const auto slot = [&](int i, int d) -> int64_t & {
        return i < L ? m.level(i).temporal[d]
                     : m.level(spatial_levels_[i - L]).spatial[d];
    };
    for (int d = 0; d < D; ++d) {
        int64_t rem = wl_.bound(d);
        for (int i = 0; i < slots - 1; ++i) {
            const auto &divs = divisors(rem);
            const int64_t f = divs[rng.index(divs.size())];
            slot(i, d) = f;
            rem /= f;
        }
        slot(slots - 1, d) = rem;
    }

    for (int l = 0; l < L; ++l)
        randomPermutationInto(m.level(l).order.data(), D, rng);

    repairFanout(m);
    repairCapacity(m);
    return m;
}

bool
MapSpace::canScaleFrom(const Workload &source) const
{
    if (source.numDims() != wl_.numDims())
        return false;
    for (int d = 0; d < wl_.numDims(); ++d) {
        if (source.dimNames()[d] != wl_.dimNames()[d])
            return false;
    }
    return true;
}

Mapping
MapSpace::scaleFrom(const Mapping &m, const Workload &source, Rng &rng) const
{
    if (source.numDims() != wl_.numDims() || m.numDims() != wl_.numDims() ||
        m.numLevels() != numLevels()) {
        return randomMapping(rng);
    }

    const int L = numLevels();
    const int D = numDims();
    Mapping scaled(L, D);
    for (int l = 0; l < L; ++l) {
        scaled.level(l).order = m.level(l).order; // inherit order
        scaled.level(l).keep = m.level(l).keep;   // inherit bypass
    }

    for (int d = 0; d < D; ++d) {
        // Keep inner factors where they divide the new bound; push the
        // remainder into the outermost temporal level (the paper's
        // "scale the tile sizes" step).
        int64_t rem = wl_.bound(d);
        for (int l = 0; l < L; ++l) {
            const int64_t s = gcd64(m.level(l).spatial[d], rem);
            scaled.level(l).spatial[d] = s;
            rem /= s;
            if (l == L - 1)
                break; // outermost temporal absorbs the remainder
            const int64_t t = gcd64(m.level(l).temporal[d], rem);
            scaled.level(l).temporal[d] = t;
            rem /= t;
        }
        scaled.level(L - 1).temporal[d] = rem;
    }

    repairFanout(scaled);
    repairCapacity(scaled);
    return scaled;
}

MapSpaceSize
MapSpace::size() const
{
    MapSpaceSize sz;
    const int L = numLevels();
    const int D = numDims();
    for (int d = 0; d < D; ++d) {
        sz.log10_tile +=
            std::log10(countOrderedFactorizations(wl_.bound(d), L));
    }
    sz.log10_order = L * std::log10(static_cast<double>(factorial(D)));
    sz.log10_parallel = static_cast<double>(spatial_levels_.size()) * D *
        std::log10(2.0);
    sz.log10_total = sz.log10_tile + sz.log10_order + sz.log10_parallel;
    return sz;
}

} // namespace mse
