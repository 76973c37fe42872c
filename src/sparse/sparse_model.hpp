/**
 * @file
 * Sparseloop-style sparse cost model (Sec. 4.5 of the paper).
 *
 * Extends the dense analytical model with the effects of compressed-
 * sparse tensors on a *flexible* sparse accelerator:
 *
 *  - Traffic compression. Word traffic of a tensor with density d is
 *    scaled by d * (1 + metadata_overhead); capacity checks likewise
 *    (see validateMapping), which widens the legal map space as the
 *    workload gets sparser — the mechanism behind Table 2's finding that
 *    different densities want different mappings.
 *  - Effectual compute. Only d_W * d_A of the MACs are effectual. With
 *    zero-*skipping* hardware the compute time shrinks accordingly
 *    (modulo a load-imbalance penalty); with zero-*gating* only the
 *    energy shrinks.
 *  - Dataflow style (Sec. 4.5.3). Inner-product-style orders (reduction
 *    innermost) pay a coordinate-intersection scan proportional to
 *    d_W + d_A, which stops shrinking at high sparsity; outer-product-
 *    style orders (reduction outermost) multiply every nonzero pair
 *    without intersection but pay a partial-output merge proportional to
 *    the effectual MACs. We blend the two penalties by the *innerness*
 *    of the reduction loops in the mapping, so loop order smoothly
 *    selects the dataflow style, and reproduce the classical crossover:
 *    inner wins when dense, outer wins when very sparse.
 */
#pragma once

#include "arch/arch.hpp"
#include "mapping/mapping.hpp"
#include "model/cost_model.hpp"
#include "model/sparse_pass.hpp"
#include "workload/workload.hpp"

namespace mse {

/**
 * Fraction in [0, 1] describing how *inner* the reduction loops of a
 * mapping are: 1 = pure inner-product style (reduction innermost),
 * 0 = pure outer-product style (reduction outermost). Loop positions are
 * weighted by log2(factor); factor-1 loops are ignored. 0.5 when the
 * mapping has no temporal reduction loops.
 */
double reductionInnerness(const Workload &wl, const Mapping &m);

/**
 * Annotate a workload with weight and activation densities and derive
 * the output density 1 - (1 - dw*da)^reduction (clamped to [lo, 1]).
 */
void applyDensities(Workload &wl, double weight_density,
                    double activation_density);

/** Force reduction dims innermost (inner-product) at every level. */
void fixOrderInnerProduct(const Workload &wl, Mapping &m);

/** Force reduction dims outermost (outer-product) at every level. */
void fixOrderOuterProduct(const Workload &wl, Mapping &m);

/**
 * The sparse analytical cost model. Reads tensor densities off the
 * workload; a fully dense workload reduces to CostModel plus the
 * (configurable, style-dependent) dataflow overheads.
 *
 * This scalar form is the reference: searches score with the planned
 * post-pass (model/sparse_pass.hpp), which is proven bit-identical to
 * evaluate() by tests/test_sparse_plan.cpp, and evaluate() remains the
 * oracle those tests and the benchmark's answer check compare against.
 */
class SparseCostModel
{
  public:
    explicit SparseCostModel(SparseAcceleratorFeatures saf = {})
        : saf_(saf)
    {}

    const SparseAcceleratorFeatures &features() const { return saf_; }

    /** Evaluate a mapping; invalid mappings get infinite EDP. */
    CostResult evaluate(const Workload &wl, const ArchConfig &arch,
                        const Mapping &m) const;

  private:
    SparseAcceleratorFeatures saf_;
};

} // namespace mse
