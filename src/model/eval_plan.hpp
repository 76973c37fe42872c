/**
 * @file
 * Precomputed evaluation plans for the analytical cost model.
 *
 * CostModel::evaluate re-derives everything that is constant across a
 * search — tensor relevance, projection layouts, per-level arch
 * constants — on every call, and allocates a dozen small vectors per
 * evaluation. An EvalPlan hoists all of that out of the hot path: it is
 * built once per (Workload, ArchConfig) pair and threaded through the
 * batch evaluator, so a planned evaluation touches only flat
 * preallocated arrays (EvalScratch) and the Mapping under test.
 *
 * Bit-identity contract. evaluatePlanned mirrors the floating-point
 * operation order of validateMapping → computeAccessCounts →
 * CostModel::fold exactly; its CostResults are bit-identical to
 * CostModel::evaluate for every mapping, valid or not (asserted
 * field-by-field at %.17g by tests/test_eval_plan.cpp and pinned by the
 * golden-trace fixture). Anything that would reorder a floating-point
 * reduction belongs in a new model version, not here.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch.hpp"
#include "mapping/mapping.hpp"
#include "model/cost_model.hpp"
#include "workload/workload.hpp"

namespace mse {

/**
 * Everything the evaluator needs that is fixed for a whole search:
 * workload shape, flattened tensor projections, relevance bitmasks, and
 * per-level architecture constants in dense arrays.
 */
struct EvalPlan
{
    int L = 0; ///< Storage levels (innermost first).
    int D = 0; ///< Workload dimensions.
    int T = 0; ///< Tensors.
    int out = -1; ///< Output tensor index.

    double macs = 0.0;          ///< Workload::totalMacs().
    double out_volume = 0.0;    ///< tensorVolume(out) for RMW accounting.
    double total_units = 1.0;   ///< double(ArchConfig::totalComputeUnits()).
    double mac_energy_pj = 0.0;

    std::vector<int64_t> bounds; ///< [D] dimension bounds.

    /** Per-tensor dimension-relevance bitmasks (bit d = dim d). */
    std::vector<uint32_t> relevance; ///< [T]

    /** Transposed relevance: bit t of dim_tensors[d] = tensor t uses
     *  dim d. Lets per-dim walks visit only the affected tensors. */
    std::vector<uint32_t> dim_tensors; ///< [D]
    uint32_t all_tensors = 0; ///< Mask with one bit per tensor.

    /** One affine term of a flattened projection rank. */
    struct RankTerm
    {
        int dim = 0;
        int64_t coeff = 1;
    };
    /** All projection terms, rank-major then tensor-major. */
    std::vector<RankTerm> terms;
    /** terms index where each rank begins; size num_ranks + 1. */
    std::vector<int> rank_begin;
    /** rank_begin index where each tensor's ranks begin; size T + 1. */
    std::vector<int> tensor_rank_begin;
    std::vector<double> density; ///< [T] tensor densities.

    /**
     * Whole-tensor footprints, i.e. the footprint at any level whose
     * cumulative factor row equals the workload bounds. Validation has
     * already proven that for the outermost (DRAM) level by the time
     * footprints are needed, so its slots read this table instead of
     * re-deriving the same value from the cum row every evaluation.
     */
    std::vector<double> fp_full; ///< [T]

    // Per-level architecture constants, innermost first.
    std::vector<int64_t> fanout;    ///< [L]
    std::vector<int64_t> cap_words; ///< [L] (<= 0 means unbounded)
    std::vector<double> cap_f;      ///< [L] double(cap_words)
    std::vector<double> read_e;     ///< [L] pJ / word read
    std::vector<double> write_e;    ///< [L] pJ / word written
    std::vector<double> hop_e;      ///< [L] pJ / word / NoC hop
    std::vector<double> bw;         ///< [L] words / cycle
    std::vector<NocTopology> noc;   ///< [L]

    /**
     * Build a plan. Throws std::invalid_argument when the shape cannot
     * be planned (more than 32 levels; workloads are already capped at
     * 32 dims).
     */
    static EvalPlan build(const Workload &wl, const ArchConfig &arch);
};

/**
 * Reusable per-thread working memory for planned evaluation. All
 * buffers are grown on first use and reused; a steady-state evaluation
 * performs no allocation.
 */
struct EvalScratch
{
    std::vector<uint64_t> cum;  ///< [L*D] cumulative tile factors.
    std::vector<uint64_t> ssp;  ///< [L] per-level spatial products.
    std::vector<double> fp;     ///< [T*L] tile footprints (kept slots).
    std::vector<double> sp_prod; ///< [L]
    std::vector<double> ai;      ///< [L+1] active instances per level.
    std::vector<double> tcnt;    ///< [L+1] per-tensor tile counts.
    std::vector<int> chain;      ///< storage chain of the current tensor.
    std::vector<TensorLevelAccess> rows; ///< [L*T] access rows.
    double active_alus = 1.0;

    // Per-candidate caches refreshed by validation (or the SoA
    // scatter) before the access-count tail runs: dense views into the
    // mapping's per-level arrays, the residency mask, and the
    // per-tensor truncated-iteration / relevant-spatial products that
    // every tensor's row computation shares.
    std::vector<const int64_t *> tf_ptr; ///< [L] temporal factors.
    std::vector<const int64_t *> sf_ptr; ///< [L] spatial factors.
    std::vector<const int *> ord_ptr;    ///< [L] loop orders.
    std::vector<uint8_t> kept;           ///< [T*L] residency mask.
    std::vector<int> ia;    ///< [T] innermost-relevant scratch.
    std::vector<int> nf_j;  ///< [D] non-unit iterating loop positions.
    std::vector<double> nf_pp; ///< [D] their running prefix products.
    std::vector<double> trunc; ///< [T*L] truncated iteration products.
    std::vector<double> relsp; ///< [T*L] relevant spatial products.

    // One-entry per-level memo for nocHops(noc, spatial product):
    // populations mutate spatial factors rarely, so consecutive
    // candidates usually share each level's product and skip the
    // log2/sqrt. Keyed on (topology, product) because thread-local
    // scratch outlives any single plan.
    std::vector<uint64_t> hops_key;
    std::vector<int8_t> hops_noc;
    std::vector<double> hops_val;
};

/**
 * Full planned evaluation of one mapping; bit-identical to
 * CostModel::evaluate. `out` is overwritten in place (vector capacity
 * is reused, so a recycled CostResult costs no allocation). For a valid
 * mapping the per-(level, tensor) access rows are left in s.rows
 * (level-major, L*T).
 */
void evaluatePlanned(const EvalPlan &plan, const Mapping &m, EvalScratch &s,
                     CostResult &out);

namespace detail {

/** Grow scratch buffers to the plan's shape (no-op once sized). */
void ensureScratch(const EvalPlan &plan, EvalScratch &s);

/** Write the invalid-mapping result CostModel::evaluate produces. */
void setErrorResult(CostResult &out, MappingError err);

/**
 * Shared tail of the planned evaluators: given scratch whose cum / ssp
 * / kept-slot footprints describe a *valid* mapping, compute the access
 * rows (left in s.rows, level-major) and fold them into `out`. The SoA
 * batch kernel funnels through this so its per-candidate arithmetic is
 * the same code — and therefore the same bits — as evaluatePlanned.
 */
void finishPlanned(const EvalPlan &plan, const Mapping &m, EvalScratch &s,
                   CostResult &out);

} // namespace detail

} // namespace mse
