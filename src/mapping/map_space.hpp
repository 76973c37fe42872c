/**
 * @file
 * The map space of a (workload, accelerator) pair (Sec. 4.2).
 *
 * MapSpace owns everything mappers need that is independent of the search
 * strategy: sampling random legal mappings, repairing fanout/capacity
 * violations by migrating tile factors outward, computing the analytic
 * size of the space, and re-scaling a mapping from one workload to a
 * similar one (the warm-start primitive of Sec. 5.1).
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/arch.hpp"
#include "common/rng.hpp"
#include "mapping/mapping.hpp"
#include "workload/workload.hpp"

namespace mse {

/** Analytic size of the map space, decomposed as in Sec. 4.2. */
struct MapSpaceSize
{
    double log10_tile = 0.0;     ///< Tile-size subspace.
    double log10_order = 0.0;    ///< Loop-order subspace, (d!)^levels.
    double log10_parallel = 0.0; ///< Parallelization subspace, 2^(d*spatial).
    double log10_total = 0.0;    ///< Sum of the above (Cartesian product).
};

/**
 * Sampling and repair operations over all legal mappings of a workload
 * onto an accelerator.
 */
class MapSpace
{
  public:
    MapSpace(Workload wl, ArchConfig arch);

    const Workload &workload() const { return wl_; }
    const ArchConfig &arch() const { return arch_; }

    int numDims() const { return wl_.numDims(); }
    int numLevels() const { return arch_.numLevels(); }

    /**
     * Draw a uniformly-flavored random legal mapping: random per-dim
     * factorizations over temporal and spatial slots, random orders,
     * followed by fanout and capacity repair.
     */
    Mapping randomMapping(Rng &rng) const;

    /**
     * Shrink spatial products that exceed a level's fanout by folding
     * factors back into the same level's temporal loop.
     */
    void repairFanout(Mapping &m) const;

    /**
     * Migrate tile factors outward (toward DRAM) until every buffer's
     * resident tiles fit. Preserves per-dimension factor products, so a
     * factor-legal mapping stays factor-legal.
     */
    void repairCapacity(Mapping &m) const;

    /**
     * Both repairs, innermost first. The result is factor- and
     * fanout-legal whenever the input was factor-legal, and fits every
     * buffer unless even the minimal tile overflows one; callers that
     * need the verdict run validateMapping.
     */
    void repair(Mapping &m) const;

    /**
     * Warm-start re-scaling (Sec. 5.1.2): inherit order and parallelism
     * from `m` (a mapping of `source`), and adjust per-dimension tile
     * factors to this map space's workload, pushing any mismatch into the
     * outermost temporal level; then repair. A mapping with another dim
     * or level count (e.g. a store record of another shape) cannot be
     * re-scaled and yields a random mapping instead.
     */
    Mapping scaleFrom(const Mapping &m, const Workload &source,
                      Rng &rng) const;

    /**
     * True iff scaleFrom can actually inherit structure from a mapping
     * of `source` (equal dimensionality with matching dim names, e.g.
     * CONV from CONV but never CONV from GEMM). When false, scaleFrom
     * falls back to a random mapping, so callers that care — like a
     * model sweep deciding warm vs. cold start — check this first.
     */
    bool canScaleFrom(const Workload &source) const;

    /** Levels with fanout > 1 (the ones with a spatial slot), inner first. */
    const std::vector<int> &spatialLevels() const { return spatial_levels_; }

    /** Analytic size of this map space (Sec. 4.2 decomposition). */
    MapSpaceSize size() const;

    /**
     * Divisors of n, ascending, served from flat tables precomputed over
     * every divisor of every workload bound (the closure of all factor
     * values mappers ever handle). Other values (factors of a foreign
     * mapping) are computed per call into a thread-local buffer, valid
     * until this thread's next such call.
     */
    std::span<const int64_t> divisors(int64_t n) const;

  private:
    /** Position of n in closure_, or -1 when n lies outside it. */
    int closureIndex(int64_t n) const;

    /** Home slot of n in index_ (Fibonacci hashing). */
    size_t indexSlot(int64_t n) const;

    /** Divide v >= 2 by its smallest prime factor; returns that prime. */
    int64_t divideSmallestPrime(int64_t &v) const;

    /**
     * Compressed words resident at level l (capacity_words' unit) when
     * cum[d] is the extent of dim d in that level's tile: kept tensors'
     * dense footprints times their densities, summed in tensor order.
     */
    double residentWords(const Mapping &m, int l, const int64_t *cum) const;

    /** One term coeff * dim of a flattened tensor projection. */
    struct ProjTerm
    {
        int dim;
        int coeff;
    };

    Workload wl_;
    ArchConfig arch_;
    std::vector<int> spatial_levels_;

    // The divisor closure, ascending. Divisors of closure_[i] are
    // div_values_[div_begin_[i] .. div_begin_[i + 1]), ascending, and
    // div_quotient_[k] is the closure position of closure_[i] /
    // div_values_[k], so a factorization walks the tables without
    // searching. bound_index_[d] is the position of bound(d).
    std::vector<int64_t> closure_;
    std::vector<uint32_t> div_begin_;
    std::vector<int64_t> div_values_;
    std::vector<uint32_t> div_quotient_;
    std::vector<uint32_t> bound_index_;

    // closureIndex's open-addressing table, value -> position in
    // closure_: a power of two of slots, at most half full, pos -1 on a
    // free slot. A lookup is one multiply and usually one probe, where a
    // binary search over closure_ mispredicts its way down.
    struct IndexSlot
    {
        int64_t value;
        int pos;
    };
    std::vector<IndexSlot> index_;
    int index_shift_ = 64;

    // Tensor projections, flattened: tensor t's ranks are
    // [tensor_begin_[t], tensor_begin_[t + 1]), rank r's terms are
    // terms_[rank_begin_[r] .. rank_begin_[r + 1]).
    std::vector<ProjTerm> terms_;
    std::vector<uint32_t> rank_begin_;
    std::vector<uint32_t> tensor_begin_;
    std::vector<double> densities_;
};

} // namespace mse
