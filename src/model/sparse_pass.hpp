/**
 * @file
 * The sparse post-pass of the planned evaluator (Sec. 4.5).
 *
 * Sparseloop models sparsity as a post-pass over dense access counts,
 * and SparseCostModel::evaluate has exactly that shape: validate, count
 * dense traffic, then apply density compression, the spill penalty, the
 * dataflow-style overheads and the SAF compute terms before folding.
 * A SparsePlan holds the density-dependent constants of one or more
 * such passes, so the planned and SoA evaluators run them over the
 * access rows they already compute (EvalScratch::rows) instead of
 * re-deriving every count per mapping.
 *
 * Spill, not rejection. The sparse model treats CapacityExceeded as a
 * spill: an over-capacity level re-fetches its tiles, scaling its own
 * and its parent's traffic by resident/capacity, rather than faulting.
 * So a sparse planned evaluation keeps over-capacity candidates, reads
 * the kept-slot footprints validation computed before its capacity
 * check, and scales their traffic. Only
 * structural errors (shape, order, factor product, fanout) reject, and
 * those do not depend on density — which is why one validation serves
 * every pass of a density sweep.
 *
 * Bit-identity contract. A single pass reproduces
 * SparseCostModel::evaluate's floating-point operation order exactly;
 * a combined sweep reproduces the sparsity-aware density-weighted sum
 * over it. Both are asserted field by field at %.17g in
 * tests/test_sparse_plan.cpp.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "model/eval_plan.hpp"
#include "workload/workload.hpp"

namespace mse {

/** Sparse acceleration features (SAFs) of the modeled hardware. */
struct SparseAcceleratorFeatures
{
    /** True: skip ineffectual compute (saves cycles and energy). */
    bool skipping = true;

    /** True: gate ineffectual compute (saves energy only). Used when
     *  skipping is false. */
    bool gating = true;

    /** Store weights / activations compressed. */
    bool compress_weights = true;
    bool compress_activations = true;

    /** Extra metadata words per stored payload word (coords/bitmask). */
    double metadata_overhead = 0.06;

    /** Load-imbalance penalty coefficient on skipped compute. */
    double imbalance_alpha = 0.35;

    /** Coordinate-intersection scan cost (cycles per operand coord). */
    double intersect_beta = 0.35;

    /** Partial-output merge cost (cycles per effectual product). */
    double merge_gamma = 0.3;

    /** Energy of one gated (suppressed) MAC relative to a real MAC. */
    double gated_mac_fraction = 0.1;
};

/**
 * Everything a sparse post-pass needs beyond the dense EvalPlan: the
 * SAFs, the workload's reduction dims and compression flags, and one
 * set of density constants per pass.
 */
struct SparsePlan
{
    /** Density-dependent constants of one post-pass. */
    struct Pass
    {
        std::vector<double> density; ///< [T] tensor densities.
        /** [T] min(density * meta, 1): the traffic scale of an input
         *  tensor (unused for the output and uncompressed tensors). */
        std::vector<double> scale;
        double dw = 1.0;      ///< Weights density.
        double da = 1.0;      ///< Inputs (activation) density.
        double d_final = 1.0; ///< Outputs density.
        double weight = 1.0;  ///< Weight of this pass in a combined sum.
    };

    SparseAcceleratorFeatures saf;
    std::vector<int> reduction_dims; ///< Workload::reductionDims() order.
    std::vector<uint8_t> compressed; ///< [T] stored compressed?
    double meta = 1.0; ///< 1 + saf.metadata_overhead.
    std::vector<Pass> passes;

    /** std::log2(f) for factors f < kLog2Table (innerness weights). */
    static constexpr size_t kLog2Table = 1024;
    std::vector<double> log2_table;

    /**
     * False: exactly one pass, whose full CostResult is the answer
     * (SparseCostModel::evaluate). True: the answer is the combined
     * score of every pass — edp, energy_uj and latency_cycles summed
     * with each pass's weight, every other field at its default.
     */
    bool combine = false;

    /** Shape only (no passes yet) for `wl` under `saf`. */
    SparsePlan(const Workload &wl, const SparseAcceleratorFeatures &saf);

    /** Add a pass at the densities annotated on `wl` (same shape). */
    void addPass(const Workload &wl, double weight = 1.0);
};

/**
 * Planned sparse evaluation of one mapping; bit-identical to
 * SparseCostModel::evaluate (one raw pass) or to the density-weighted
 * sum over its passes (combine). `out` is overwritten in place.
 */
void evaluatePlannedSparse(const EvalPlan &plan, const SparsePlan &sparse,
                           const Mapping &m, EvalScratch &s,
                           CostResult &out);

namespace detail {

/**
 * Sparse counterpart of finishPlanned: given scratch whose dense views,
 * cum / ssp / kept-slot footprints describe a structurally valid
 * mapping (capacity unchecked), compute the access rows once and run
 * every pass of `sparse` over them.
 */
void finishSparse(const EvalPlan &plan, const SparsePlan &sparse,
                  EvalScratch &s, CostResult &out);

} // namespace detail

} // namespace mse
