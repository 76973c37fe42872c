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

#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "workload/workload.hpp"

namespace mse {

/** Mapping directives for one storage level. */
struct LevelMapping
{
    /** Temporal tile factor per workload dimension (>= 1). */
    std::vector<int64_t> temporal;

    /** Spatial partitioning factor per dimension (>= 1). */
    std::vector<int64_t> spatial;

    /** Loop order: permutation of dim indices, outermost first. */
    std::vector<int> order;

    /**
     * Per-tensor bypass directives: keep[t] == false means tensor t is
     * not resident at this level and streams directly between the
     * nearest keeping levels above and below (Timeloop's bypass).
     * An empty vector means "keep every tensor" (the default); the
     * outermost level (DRAM) must keep everything.
     */
    std::vector<uint8_t> keep;
};

/** A complete mapping: one LevelMapping per storage level (L1 first). */
class Mapping
{
  public:
    Mapping() = default;

    /** An all-ones mapping skeleton with identity orders. */
    Mapping(int num_levels, int num_dims);

    int numLevels() const { return static_cast<int>(levels_.size()); }
    int numDims() const
    {
        return levels_.empty() ? 0
                               : static_cast<int>(levels_[0].temporal.size());
    }

    LevelMapping &level(int l) { return levels_[l]; }
    const LevelMapping &level(int l) const { return levels_[l]; }

    /**
     * Product of temporal and spatial factors of dimension d across
     * levels [0, l] — the extent of d inside the tile held at level l.
     */
    int64_t cumulativeFactor(int l, int d) const;

    /** Product of temporal*spatial factors of dim d across all levels. */
    int64_t totalFactor(int d) const;

    /** Product of spatial factors at level l across all dims. */
    int64_t spatialProduct(int l) const;

    /** The per-dimension factor column (t0,s0,t1,s1,...) for dim d. */
    std::vector<int64_t> factorColumn(int d) const;

    /** Install a factor column produced by factorColumn(). */
    void setFactorColumn(int d, const std::vector<int64_t> &column);

    /** True iff tensor t is resident at level l (empty mask = keep). */
    bool
    keeps(int l, int t) const
    {
        const auto &mask = levels_[l].keep;
        return mask.empty() || mask[static_cast<size_t>(t)] != 0;
    }

    /** Set the bypass directive for tensor t at level l. */
    void setKeep(int l, int t, bool keep, int num_tensors);

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
    std::vector<LevelMapping> levels_;
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
