#include "mapping/map_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math_util.hpp"
#include "common/permutation.hpp"

namespace mse {

namespace {

/** Smallest prime factor of n >= 2, by trial division. */
int64_t
trialSmallestPrime(int64_t n)
{
    for (int64_t p = 2; p * p <= n; ++p) {
        if (n % p == 0)
            return p;
    }
    return n;
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
    // divisor of some bound, and divisors of divisors are divisors, so
    // the divisors of a closure value are the closure values dividing
    // it.
    for (int64_t b : wl_.bounds()) {
        const std::vector<int64_t> divs = divisorsOf(b);
        closure_.insert(closure_.end(), divs.begin(), divs.end());
    }
    std::sort(closure_.begin(), closure_.end());
    closure_.erase(std::unique(closure_.begin(), closure_.end()),
                   closure_.end());
    int bits = 4;
    while ((size_t{1} << bits) < 2 * closure_.size())
        ++bits;
    index_shift_ = 64 - bits;
    index_.assign(size_t{1} << bits, IndexSlot{0, -1});
    for (size_t i = 0; i < closure_.size(); ++i) {
        size_t s = indexSlot(closure_[i]);
        while (index_[s].pos >= 0)
            s = (s + 1) & (index_.size() - 1);
        index_[s] = {closure_[i], static_cast<int>(i)};
    }
    div_begin_.push_back(0);
    for (size_t i = 0; i < closure_.size(); ++i) {
        for (size_t j = 0; j <= i; ++j) {
            if (closure_[i] % closure_[j] != 0)
                continue;
            const int q = closureIndex(closure_[i] / closure_[j]);
            div_values_.push_back(closure_[j]);
            div_quotient_.push_back(static_cast<uint32_t>(q));
        }
        div_begin_.push_back(static_cast<uint32_t>(div_values_.size()));
    }
    for (int64_t b : wl_.bounds())
        bound_index_.push_back(static_cast<uint32_t>(closureIndex(b)));

    rank_begin_.push_back(0);
    tensor_begin_.push_back(0);
    for (const TensorSpec &spec : wl_.tensors()) {
        for (const CompositeDim &rank : spec.projection) {
            for (const DimTerm &term : rank)
                terms_.push_back({term.dim, term.coeff});
            rank_begin_.push_back(static_cast<uint32_t>(terms_.size()));
        }
        tensor_begin_.push_back(
            static_cast<uint32_t>(rank_begin_.size() - 1));
        densities_.push_back(spec.density);
    }
}

size_t
MapSpace::indexSlot(int64_t n) const
{
    return static_cast<size_t>(
        (static_cast<uint64_t>(n) * 0x9e3779b97f4a7c15ULL) >> index_shift_);
}

int
MapSpace::closureIndex(int64_t n) const
{
    for (size_t s = indexSlot(n);; s = (s + 1) & (index_.size() - 1)) {
        const IndexSlot &slot = index_[s];
        if (slot.pos < 0 || slot.value == n)
            return slot.pos;
    }
}

std::span<const int64_t>
MapSpace::divisors(int64_t n) const
{
    const int i = closureIndex(n);
    if (i >= 0) {
        return {div_values_.data() + div_begin_[i],
                div_begin_[i + 1] - div_begin_[i]};
    }
    static thread_local std::vector<int64_t> other;
    other = divisorsOf(n);
    return other;
}

int64_t
MapSpace::divideSmallestPrime(int64_t &v) const
{
    // Divisors ascend, so a closure value's second divisor is its
    // smallest prime factor, and the table holds the quotient's position.
    const int i = closureIndex(v);
    if (i >= 0) {
        const uint32_t k = div_begin_[i] + 1;
        v = closure_[div_quotient_[k]];
        return div_values_[k];
    }
    const int64_t p = trialSmallestPrime(v);
    v /= p;
    return p;
}

double
MapSpace::residentWords(const Mapping &m, int l, const int64_t *cum) const
{
    // The same double operations, in the same order, as summing
    // tileFootprint(wl_, m, t, l) * density over the kept tensors, so
    // every capacity verdict matches validateMapping's.
    double sum = 0.0;
    for (int t = 0; t < wl_.numTensors(); ++t) {
        if (!m.keeps(l, t))
            continue;
        double p = 1.0;
        for (uint32_t r = tensor_begin_[t]; r < tensor_begin_[t + 1]; ++r) {
            int64_t extent = 1;
            for (uint32_t k = rank_begin_[r]; k < rank_begin_[r + 1]; ++k)
                extent += terms_[k].coeff * (cum[terms_[k].dim] - 1);
            p *= static_cast<double>(extent);
        }
        sum += p * densities_[t];
    }
    return sum;
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
            m.level(l).temporal[best] *=
                divideSmallestPrime(m.level(l).spatial[best]);
        }
    }
}

void
MapSpace::repairCapacity(Mapping &m) const
{
    // cum[d] is dim d's extent inside the tile held at level l (its
    // cumulativeFactor), kept current across the moves below.
    int64_t cum[Workload::kMaxDims];
    std::fill_n(cum, numDims(), int64_t{1});
    for (int l = 0; l < numLevels() - 1; ++l) {
        for (int d = 0; d < numDims(); ++d)
            cum[d] *= m.level(l).temporal[d] * m.level(l).spatial[d];
        const int64_t cap = arch_.levels[l].capacity_words;
        if (cap <= 0)
            continue;
        while (residentWords(m, l, cum) > static_cast<double>(cap)) {
            // Pick the dimension with the largest extent inside this tile
            // and migrate one prime factor of it up to the parent level.
            int best_dim = -1;
            int64_t best_cum = 1;
            for (int d = 0; d < numDims(); ++d) {
                if (cum[d] > best_cum) {
                    best_cum = cum[d];
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
            const int64_t p = divideSmallestPrime(*slot);
            m.level(l + 1).temporal[best_dim] *= p;
            cum[best_dim] /= p;
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
        uint32_t rem = bound_index_[d]; // closure position of the rest
        for (int i = 0; i < slots - 1; ++i) {
            const uint32_t first = div_begin_[rem];
            const uint32_t k = first +
                static_cast<uint32_t>(rng.index(div_begin_[rem + 1] - first));
            slot(i, d) = div_values_[k];
            rem = div_quotient_[k];
        }
        slot(slots - 1, d) = closure_[rem];
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
