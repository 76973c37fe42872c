#include "mapping/mapping.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <sstream>

#include "common/permutation.hpp"

namespace mse {

Mapping::Mapping(int num_levels, int num_dims)
{
    if (num_levels < 0 || num_dims < 0)
        throw std::invalid_argument("mapping: negative shape");
    levels_ = num_levels;
    dims_ = num_levels > 0 ? num_dims : 0;
    const size_t ld = static_cast<size_t>(levels_) * dims_;
    buf_.assign(3 * ld + 2 * static_cast<size_t>(levels_), 0);
    std::fill_n(buf_.begin(), 2 * ld, int64_t{1});
    for (int l = 0; l < levels_; ++l) {
        const MappingRow<int64_t> ord = row(kOrder, l);
        std::iota(ord.begin(), ord.end(), int64_t{0});
    }
}

int64_t
Mapping::cumulativeFactor(int l, int d) const
{
    const int64_t *tf = buf_.data() + d;
    const int64_t *sf = tf + static_cast<size_t>(levels_) * dims_;
    int64_t p = 1;
    for (int i = 0; i <= l; ++i)
        p *= tf[static_cast<size_t>(i) * dims_] *
            sf[static_cast<size_t>(i) * dims_];
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
    for (int64_t s : row(kSpatial, l))
        p *= s;
    return p;
}

void
Mapping::copyFactorColumn(int d, const Mapping &src)
{
    const size_t ld = static_cast<size_t>(levels_) * dims_;
    for (size_t i = static_cast<size_t>(d); i < 2 * ld; i += dims_)
        buf_[i] = src.buf_[i];
}

void
Mapping::setKeep(int l, int t, bool keep, int num_tensors)
{
    if (num_tensors > kMaxKeepTensors)
        throw std::invalid_argument("mapping: keep mask too long");
    int64_t *w = keepWords(l);
    if (w[0] == 0) {
        w[0] = num_tensors;
        w[1] = static_cast<int64_t>(
            num_tensors >= 64 ? ~uint64_t{0}
                              : (uint64_t{1} << num_tensors) - 1);
    }
    const uint64_t bit = uint64_t{1} << t;
    const uint64_t bits = static_cast<uint64_t>(w[1]);
    w[1] = static_cast<int64_t>(keep ? bits | bit : bits & ~bit);
}

void
Mapping::setKeepMask(int l, const std::vector<uint8_t> &mask)
{
    if (mask.size() > static_cast<size_t>(kMaxKeepTensors))
        throw std::invalid_argument("mapping: keep mask too long");
    uint64_t bits = 0;
    for (size_t t = 0; t < mask.size(); ++t) {
        if (mask[t])
            bits |= uint64_t{1} << t;
    }
    int64_t *w = keepWords(l);
    w[0] = static_cast<int64_t>(mask.size());
    w[1] = static_cast<int64_t>(bits);
}

namespace {

/**
 * Order with runs of unit-temporal loops sorted, so that permutations
 * among them collapse to one canonical order. Writes into a
 * caller-provided buffer to keep operator== allocation-free (its
 * buffers are thread_local because it runs on eval-pool workers).
 */
void
canonicalOrderInto(const ConstLevelMapping &lvl, std::vector<int64_t> &canon)
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

/** Append the decimal digits of v to out. */
void
appendInt(std::string &out, int64_t v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

} // namespace

std::string
Mapping::canonicalKey() const
{
    static thread_local std::vector<int64_t> canon;
    std::string key;
    key.reserve(static_cast<size_t>(levels_) * (6 * dims_ + 4));
    for (int l = 0; l < levels_; ++l) {
        const ConstLevelMapping lvl = level(l);
        for (int d = 0; d < dims_; ++d) {
            appendInt(key, lvl.temporal[d]);
            key += '.';
            appendInt(key, lvl.spatial[d]);
            key += ',';
        }
        canonicalOrderInto(lvl, canon);
        for (int64_t o : canon) {
            appendInt(key, o);
            key += ';';
        }
        if (!lvl.keep.empty()) {
            key += 'k';
            for (size_t t = 0; t < lvl.keep.size(); ++t)
                key += static_cast<char>('0' + lvl.keep[t]);
        }
        key += '|';
    }
    return key;
}

bool
Mapping::operator==(const Mapping &other) const
{
    static thread_local std::vector<int64_t> canon_a, canon_b;
    if (levels_ != other.levels_ || dims_ != other.dims_)
        return false;
    const size_t ld = static_cast<size_t>(levels_) * dims_;
    if (!std::equal(buf_.begin(), buf_.begin() + 2 * ld,
                    other.buf_.begin()))
        return false;
    for (int l = 0; l < levels_; ++l) {
        const ConstLevelMapping a = level(l);
        const ConstLevelMapping b = other.level(l);
        // Exact order match (the common case: GA elites and un-mutated
        // clones are verbatim copies) short-circuits canonicalization.
        if (!(a.order == b.order)) {
            canonicalOrderInto(a, canon_a);
            canonicalOrderInto(b, canon_b);
            if (canon_a != canon_b)
                return false;
        }
        const bool ab = a.keep.bypassesAny();
        if (ab != b.keep.bypassesAny())
            return false;
        if (ab && !(a.keep == b.keep))
            return false;
    }
    return true;
}

std::string
Mapping::toString(const Workload &wl) const
{
    std::ostringstream os;
    for (int l = numLevels() - 1; l >= 0; --l) {
        const ConstLevelMapping lvl = level(l);
        os << "Level " << l << ":";
        os << " order=[";
        for (size_t i = 0; i < lvl.order.size(); ++i) {
            if (i)
                os << " ";
            os << wl.dimNames()[lvl.order[i]];
        }
        os << "] temporal=(";
        for (int d = 0; d < numDims(); ++d) {
            if (d)
                os << ",";
            os << lvl.temporal[d];
        }
        os << ") spatial=(";
        for (int d = 0; d < numDims(); ++d) {
            if (d)
                os << ",";
            os << lvl.spatial[d];
        }
        os << ")";
        if (!lvl.keep.empty()) {
            os << " bypass=[";
            bool first = true;
            for (size_t t = 0; t < lvl.keep.size(); ++t) {
                if (!lvl.keep[t]) {
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
    if (m.numLevels() != num_levels || m.numDims() != num_dims)
        return MappingError::BadShape;
    for (int l = 0; l < num_levels; ++l) {
        const ConstLevelMapping lvl = m.level(l);
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
