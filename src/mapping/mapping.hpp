/**
 * @file
 * Timeloop-style mapping representation (Sec. 2.3 of the paper).
 *
 * A mapping binds a workload's loop nest onto the accelerator hierarchy.
 * For every storage level it specifies, per workload dimension:
 *   - a *temporal* tile factor (how many sub-tiles this level iterates),
 *   - a *spatial* factor (how the level partitions data across the
 *     spatial instances of the hierarchy below it), and
 *   - a loop *order* (a permutation of the dimensions, outermost first)
 *     governing reuse of the child level's tiles.
 * The per-dimension product of all temporal and spatial factors must
 * equal the dimension bound, and per-level spatial products must fit the
 * level's fanout. These three choices are the paper's three mapping axes:
 * tile sizes, loop order, and parallelism.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "workload/workload.hpp"

namespace mse {

/**
 * A window onto one per-level row (D values) of a Mapping's buffer.
 *
 * Rows have value semantics on assignment: `a.level(l).order =
 * b.level(l).order` copies the elements, it never rebinds the window.
 * Copy-constructing a row (returning it, passing it by value) yields
 * another window onto the same elements. Rows have a fixed length; an
 * assignment of another length throws std::length_error.
 */
template <typename T>
class MappingRow
{
  public:
    using value_type = std::remove_const_t<T>;
    using iterator = T *;
    using const_iterator = T *;

    MappingRow(T *data, int size) : data_(data), size_(size) {}
    MappingRow(const MappingRow &) = default;

    MappingRow &operator=(const MappingRow &other)
    {
        return other.data() == data_ ? *this
                                     : assign(other.begin(), other.end());
    }
    template <typename U>
    MappingRow &operator=(const MappingRow<U> &other)
    {
        return other.data() == data_ ? *this
                                     : assign(other.begin(), other.end());
    }
    template <typename U>
    MappingRow &operator=(const std::vector<U> &values)
    {
        return assign(values.begin(), values.end());
    }
    MappingRow &operator=(std::initializer_list<value_type> values)
    {
        return assign(values.begin(), values.end());
    }

    T &operator[](size_t i) const { return data_[i]; }
    T *data() const { return data_; }
    T *begin() const { return data_; }
    T *end() const { return data_ + size_; }
    size_t size() const { return static_cast<size_t>(size_); }

  private:
    template <typename It>
    MappingRow &assign(It first, It last)
    {
        if (std::distance(first, last) != size_)
            throw std::length_error("mapping row: length mismatch");
        std::copy(first, last, data_);
        return *this;
    }

    T *data_;
    int size_;
};

template <typename T, typename U>
bool
operator==(const MappingRow<T> &a, const MappingRow<U> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

template <typename T, typename U>
bool
operator==(const MappingRow<T> &a, const std::vector<U> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/**
 * A window onto one level's keep mask: two words of a Mapping's buffer,
 * the mask length (0 = no mask, i.e. keep every tensor) and one bit per
 * tensor. Bits at or above the length are always zero. Assignment copies
 * the mask, including whether it is present.
 */
template <typename W>
class KeepMask
{
  public:
    explicit KeepMask(W *words) : words_(words) {}
    KeepMask(const KeepMask &) = default;

    KeepMask &operator=(const KeepMask &other) { return copy(other); }
    template <typename U>
    KeepMask &operator=(const KeepMask<U> &other)
    {
        return copy(other);
    }

    bool empty() const { return words_[0] == 0; }
    size_t size() const { return static_cast<size_t>(words_[0]); }
    /** Bit t; 0 for any t at or past the length. */
    uint8_t
    operator[](size_t t) const
    {
        return t < 64 ? (bits() >> t) & 1u : 0;
    }
    uint64_t bits() const { return static_cast<uint64_t>(words_[1]); }

    /** True iff the mask bypasses some tensor (is not all ones). */
    bool
    bypassesAny() const
    {
        const size_t n = size();
        return bits() != (n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1);
    }

    template <typename U>
    bool
    operator==(const KeepMask<U> &other) const
    {
        return size() == other.size() && bits() == other.bits();
    }

  private:
    template <typename U>
    KeepMask &
    copy(const KeepMask<U> &other)
    {
        words_[0] = static_cast<int64_t>(other.size());
        words_[1] = static_cast<int64_t>(other.bits());
        return *this;
    }

    W *words_;
};

/**
 * Mapping directives for one storage level: windows onto its rows of
 * the owning Mapping (valid while that Mapping lives and keeps its
 * shape). BasicLevelMapping<int64_t> writes through, the const variant
 * only reads.
 */
template <typename W>
struct BasicLevelMapping
{
    /** Temporal tile factor per workload dimension (>= 1). */
    MappingRow<W> temporal;

    /** Spatial partitioning factor per dimension (>= 1). */
    MappingRow<W> spatial;

    /** Loop order: permutation of dim indices, outermost first. */
    MappingRow<W> order;

    /**
     * Per-tensor bypass directives: keep[t] == 0 means tensor t is
     * not resident at this level and streams directly between the
     * nearest keeping levels above and below (Timeloop's bypass).
     * An empty mask means "keep every tensor" (the default); the
     * outermost level (DRAM) must keep everything.
     */
    KeepMask<W> keep;
};

using LevelMapping = BasicLevelMapping<int64_t>;
using ConstLevelMapping = BasicLevelMapping<const int64_t>;

/**
 * A complete mapping: one set of level directives per storage level
 * (L1 first), stored in one buffer of int64 words:
 *
 *     [temporal L*D | spatial L*D | order L*D | keep 2*L]
 *
 * Row l of each L*D block is that level's D values; keep holds a
 * (length, bits) pair per level. Copying a mapping is one allocation;
 * reading, mutating and comparing it are none.
 */
class Mapping
{
  public:
    /** Longest keep mask a level can carry (one bit per tensor). */
    static constexpr int kMaxKeepTensors = 64;

    Mapping() = default;

    /** An all-ones mapping skeleton with identity orders. */
    Mapping(int num_levels, int num_dims);

    Mapping(const Mapping &) = default;
    Mapping &operator=(const Mapping &) = default;

    /** Moving leaves the source the empty 0-level mapping. */
    Mapping(Mapping &&other) noexcept
        : levels_(std::exchange(other.levels_, 0)),
          dims_(std::exchange(other.dims_, 0)), buf_(std::move(other.buf_))
    {
    }
    Mapping &
    operator=(Mapping &&other) noexcept
    {
        if (this != &other) {
            levels_ = std::exchange(other.levels_, 0);
            dims_ = std::exchange(other.dims_, 0);
            buf_ = std::move(other.buf_);
            other.buf_.clear();
        }
        return *this;
    }

    int numLevels() const { return levels_; }
    int numDims() const { return dims_; }

    LevelMapping
    level(int l)
    {
        return {row(kTemporal, l), row(kSpatial, l), row(kOrder, l),
                KeepMask<int64_t>(keepWords(l))};
    }
    ConstLevelMapping
    level(int l) const
    {
        return {row(kTemporal, l), row(kSpatial, l), row(kOrder, l),
                KeepMask<const int64_t>(keepWords(l))};
    }

    /**
     * Product of temporal and spatial factors of dimension d across
     * levels [0, l] — the extent of d inside the tile held at level l.
     */
    int64_t cumulativeFactor(int l, int d) const;

    /** Product of temporal*spatial factors of dim d across all levels. */
    int64_t totalFactor(int d) const;

    /** Product of spatial factors at level l across all dims. */
    int64_t spatialProduct(int l) const;

    /**
     * Copy dimension d's factor column (its temporal and spatial factor
     * at every level) from `src`, a mapping of the same shape.
     */
    void copyFactorColumn(int d, const Mapping &src);

    /** True iff tensor t is resident at level l (empty mask = keep). */
    bool
    keeps(int l, int t) const
    {
        const KeepMask<const int64_t> mask(keepWords(l));
        return mask.empty() || mask[static_cast<size_t>(t)] != 0;
    }

    /**
     * Set the bypass directive for tensor t at level l. A level without
     * a mask first gets an explicit keep-everything mask of num_tensors
     * entries. Throws std::invalid_argument above kMaxKeepTensors.
     */
    void setKeep(int l, int t, bool keep, int num_tensors);

    /**
     * Replace level l's keep mask with `mask` (entries 0 or 1; an empty
     * vector removes the mask). Throws std::invalid_argument above
     * kMaxKeepTensors entries.
     */
    void setKeepMask(int l, const std::vector<uint8_t> &mask);

    /**
     * Canonical dedupe key. Loops with temporal factor 1 are order-
     * insensitive, so the key sorts runs of unit loops; this implements
     * the Random-Pruned redundancy rule (Sec. 4.3).
     */
    std::string canonicalKey() const;

    /**
     * Canonical equality: two mappings that are equal up to (a)
     * permutations within runs of unit-factor loops and (b) an explicit
     * keep-everything mask vs. an empty one compare equal. Equal mappings
     * have equal cost.
     */
    bool operator==(const Mapping &other) const;
    bool operator!=(const Mapping &other) const
    {
        return !(*this == other);
    }

    /** Multi-line human-readable loop nest rendering. */
    std::string toString(const Workload &wl) const;

  private:
    /** The three L*D blocks of the buffer, in buffer order. */
    enum Block
    {
        kTemporal = 0,
        kSpatial = 1,
        kOrder = 2
    };

    size_t
    rowOffset(Block b, int l) const
    {
        return (static_cast<size_t>(b) * levels_ + l) *
            static_cast<size_t>(dims_);
    }
    MappingRow<int64_t>
    row(Block b, int l)
    {
        return {buf_.data() + rowOffset(b, l), dims_};
    }
    MappingRow<const int64_t>
    row(Block b, int l) const
    {
        return {buf_.data() + rowOffset(b, l), dims_};
    }
    int64_t *keepWords(int l) { return buf_.data() + keepOffset(l); }
    const int64_t *
    keepWords(int l) const
    {
        return buf_.data() + keepOffset(l);
    }
    size_t
    keepOffset(int l) const
    {
        return 3 * static_cast<size_t>(levels_) * dims_ +
            2 * static_cast<size_t>(l);
    }

    int levels_ = 0;
    int dims_ = 0;
    std::vector<int64_t> buf_;
};

/** Why a mapping failed validation. */
enum class MappingError
{
    Ok,
    BadShape,         ///< Level/dim counts disagree with workload/arch.
    BadFactorProduct, ///< Factors of some dim don't multiply to its bound.
    BadOrder,         ///< Some level's order is not a permutation.
    FanoutExceeded,   ///< Spatial product exceeds a level's fanout.
    CapacityExceeded, ///< Resident tiles overflow a buffer.
};

/** Printable name of a MappingError. */
const char *mappingErrorName(MappingError e);

/**
 * Dense tile footprint (in words) of tensor t resident in the buffer at
 * level l, honoring sliding-window projections.
 */
double tileFootprint(const Workload &wl, const Mapping &m, int t, int l);

/** Full legality check of m against workload and architecture. */
MappingError validateMapping(const Workload &wl, const ArchConfig &arch,
                             const Mapping &m);

} // namespace mse
