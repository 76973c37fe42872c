#include "mapping/mapping.hpp"

#include <algorithm>
#include <sstream>

#include "common/math_util.hpp"
#include "common/permutation.hpp"

namespace mse {

Mapping::Mapping(int num_levels, int num_dims)
{
    levels_.resize(num_levels);
    for (auto &lvl : levels_) {
        lvl.temporal.assign(num_dims, 1);
        lvl.spatial.assign(num_dims, 1);
        lvl.order = identityPermutation(num_dims);
    }
}

int64_t
Mapping::cumulativeFactor(int l, int d) const
{
    int64_t p = 1;
    for (int i = 0; i <= l; ++i)
        p *= levels_[i].temporal[d] * levels_[i].spatial[d];
    return p;
}

int64_t
Mapping::totalFactor(int d) const
{
    return cumulativeFactor(numLevels() - 1, d);
}

int64_t
Mapping::spatialProduct(int l) const
{
    int64_t p = 1;
    for (int64_t s : levels_[l].spatial)
        p *= s;
    return p;
}

std::vector<int64_t>
Mapping::factorColumn(int d) const
{
    std::vector<int64_t> col;
    col.reserve(2 * levels_.size());
    for (const auto &lvl : levels_) {
        col.push_back(lvl.temporal[d]);
        col.push_back(lvl.spatial[d]);
    }
    return col;
}

void
Mapping::setFactorColumn(int d, const std::vector<int64_t> &column)
{
    for (size_t l = 0; l < levels_.size(); ++l) {
        levels_[l].temporal[d] = column[2 * l];
        levels_[l].spatial[d] = column[2 * l + 1];
    }
}

void
Mapping::setKeep(int l, int t, bool keep, int num_tensors)
{
    auto &mask = levels_[l].keep;
    if (mask.empty())
        mask.assign(static_cast<size_t>(num_tensors), 1);
    mask[static_cast<size_t>(t)] = keep ? 1 : 0;
}

std::string
Mapping::canonicalKey() const
{
    std::ostringstream os;
    for (const auto &lvl : levels_) {
        for (size_t d = 0; d < lvl.temporal.size(); ++d)
            os << lvl.temporal[d] << "." << lvl.spatial[d] << ",";
        // Canonical order: runs of adjacent unit loops are sorted so that
        // permutations among them collapse to one key.
        std::vector<int> canon = lvl.order;
        size_t i = 0;
        while (i < canon.size()) {
            size_t j = i;
            while (j < canon.size() && lvl.temporal[canon[j]] == 1)
                ++j;
            if (j > i)
                std::sort(canon.begin() + i, canon.begin() + j);
            i = std::max(j, i + 1);
        }
        for (int o : canon)
            os << o << ";";
        if (!lvl.keep.empty()) {
            os << "k";
            for (uint8_t k : lvl.keep)
                os << static_cast<int>(k);
        }
        os << "|";
    }
    return os.str();
}

namespace {

/**
 * Order with runs of unit-temporal loops sorted (see canonicalKey).
 * Writes into a caller-provided buffer to keep the hot hash/equality
 * path allocation-free (the buffers below are thread_local because
 * hashing runs on eval-pool workers).
 */
void
canonicalOrderInto(const LevelMapping &lvl, std::vector<int> &canon)
{
    canon.assign(lvl.order.begin(), lvl.order.end());
    size_t i = 0;
    while (i < canon.size()) {
        size_t j = i;
        while (j < canon.size() && lvl.temporal[canon[j]] == 1)
            ++j;
        if (j > i)
            std::sort(canon.begin() + i, canon.begin() + j);
        i = std::max(j, i + 1);
    }
}

/** True iff the keep mask actually bypasses something. */
bool
maskBypasses(const std::vector<uint8_t> &mask)
{
    for (uint8_t k : mask) {
        if (k == 0)
            return true;
    }
    return false;
}

/**
 * FNV-1a step: cheap per-element combine on the hot eval-cache path.
 * Collisions are safe (the cache verifies keys with operator==), so a
 * fast sequential hash beats a cryptographic-strength one here.
 */
uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001b3ULL;
}

} // namespace

uint64_t
Mapping::hash() const
{
    static thread_local std::vector<int> canon;
    uint64_t h = 0x6d61707370616365ULL; // "mapspace"
    for (const auto &lvl : levels_) {
        for (size_t d = 0; d < lvl.temporal.size(); ++d) {
            h = hashCombine(h, static_cast<uint64_t>(lvl.temporal[d]));
            h = hashCombine(h, static_cast<uint64_t>(lvl.spatial[d]));
        }
        canonicalOrderInto(lvl, canon);
        for (int o : canon)
            h = hashCombine(h, static_cast<uint64_t>(o) + 0x100);
        // An all-keep mask is canonically identical to an empty one.
        if (maskBypasses(lvl.keep)) {
            for (uint8_t k : lvl.keep)
                h = hashCombine(h, k ? 0x2ULL : 0x3ULL);
        }
        h = hashCombine(h, 0xabULL); // level separator
    }
    return mix64(h);
}

bool
Mapping::operator==(const Mapping &other) const
{
    static thread_local std::vector<int> canon_a, canon_b;
    if (levels_.size() != other.levels_.size())
        return false;
    for (size_t l = 0; l < levels_.size(); ++l) {
        const auto &a = levels_[l];
        const auto &b = other.levels_[l];
        if (a.temporal != b.temporal || a.spatial != b.spatial)
            return false;
        // Exact order match (the common case: GA elites and un-mutated
        // clones are verbatim copies) short-circuits canonicalization.
        if (a.order != b.order) {
            canonicalOrderInto(a, canon_a);
            canonicalOrderInto(b, canon_b);
            if (canon_a != canon_b)
                return false;
        }
        const bool ab = maskBypasses(a.keep);
        if (ab != maskBypasses(b.keep))
            return false;
        if (ab && a.keep != b.keep)
            return false;
    }
    return true;
}

std::string
Mapping::toString(const Workload &wl) const
{
    std::ostringstream os;
    for (int l = numLevels() - 1; l >= 0; --l) {
        os << "Level " << l << ":";
        os << " order=[";
        for (size_t i = 0; i < levels_[l].order.size(); ++i) {
            if (i)
                os << " ";
            os << wl.dimNames()[levels_[l].order[i]];
        }
        os << "] temporal=(";
        for (int d = 0; d < numDims(); ++d) {
            if (d)
                os << ",";
            os << levels_[l].temporal[d];
        }
        os << ") spatial=(";
        for (int d = 0; d < numDims(); ++d) {
            if (d)
                os << ",";
            os << levels_[l].spatial[d];
        }
        os << ")";
        if (!levels_[l].keep.empty()) {
            os << " bypass=[";
            bool first = true;
            for (size_t t = 0; t < levels_[l].keep.size(); ++t) {
                if (!levels_[l].keep[t]) {
                    if (!first)
                        os << " ";
                    os << wl.tensor(static_cast<int>(t)).name;
                    first = false;
                }
            }
            os << "]";
        }
        os << "\n";
    }
    return os.str();
}

const char *
mappingErrorName(MappingError e)
{
    switch (e) {
      case MappingError::Ok: return "Ok";
      case MappingError::BadShape: return "BadShape";
      case MappingError::BadFactorProduct: return "BadFactorProduct";
      case MappingError::BadOrder: return "BadOrder";
      case MappingError::FanoutExceeded: return "FanoutExceeded";
      case MappingError::CapacityExceeded: return "CapacityExceeded";
    }
    return "Unknown";
}

double
tileFootprint(const Workload &wl, const Mapping &m, int t, int l)
{
    const auto &spec = wl.tensor(t);
    double p = 1.0;
    for (const auto &rank : spec.projection) {
        int64_t extent = 1;
        for (const auto &term : rank)
            extent += term.coeff * (m.cumulativeFactor(l, term.dim) - 1);
        p *= static_cast<double>(extent);
    }
    return p;
}

MappingError
validateMapping(const Workload &wl, const ArchConfig &arch, const Mapping &m)
{
    const int num_dims = wl.numDims();
    const int num_levels = arch.numLevels();
    if (m.numLevels() != num_levels)
        return MappingError::BadShape;
    for (int l = 0; l < num_levels; ++l) {
        const auto &lvl = m.level(l);
        if (static_cast<int>(lvl.temporal.size()) != num_dims ||
            static_cast<int>(lvl.spatial.size()) != num_dims ||
            static_cast<int>(lvl.order.size()) != num_dims) {
            return MappingError::BadShape;
        }
        if (!isPermutation(lvl.order))
            return MappingError::BadOrder;
        for (int d = 0; d < num_dims; ++d) {
            if (lvl.temporal[d] < 1 || lvl.spatial[d] < 1)
                return MappingError::BadFactorProduct;
        }
        if (!lvl.keep.empty() &&
            static_cast<int>(lvl.keep.size()) != wl.numTensors()) {
            return MappingError::BadShape;
        }
    }
    // The outermost level (DRAM) is the backing store: no bypass there.
    for (int t = 0; t < wl.numTensors(); ++t) {
        if (!m.keeps(num_levels - 1, t))
            return MappingError::BadShape;
    }
    for (int d = 0; d < num_dims; ++d) {
        if (m.totalFactor(d) != wl.bound(d))
            return MappingError::BadFactorProduct;
    }
    for (int l = 0; l < num_levels; ++l) {
        if (m.spatialProduct(l) > arch.levels[l].fanout)
            return MappingError::FanoutExceeded;
    }
    // Buffer capacity: every non-DRAM level must hold one tile of each
    // tensor simultaneously (double-buffering is folded into the
    // configured capacities). Tiles of tensors annotated with density
    // < 1 are stored compressed and occupy density-scaled space, which
    // is what widens the legal map space as workloads get sparser
    // (Sec. 4.5).
    for (int l = 0; l < num_levels; ++l) {
        const int64_t cap = arch.levels[l].capacity_words;
        if (cap <= 0)
            continue; // unbounded (DRAM)
        double resident = 0.0;
        for (int t = 0; t < wl.numTensors(); ++t) {
            if (m.keeps(l, t)) {
                resident +=
                    tileFootprint(wl, m, t, l) * wl.tensor(t).density;
            }
        }
        if (resident > static_cast<double>(cap))
            return MappingError::CapacityExceeded;
    }
    return MappingError::Ok;
}

} // namespace mse
