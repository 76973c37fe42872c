/**
 * @file
 * Sparsity-aware mapping search (the paper's second proposed technique,
 * Sec. 5.2).
 *
 * Activation sparsity is dynamic — it changes with every input — so
 * searching an optimal mapping per input is impractical. Instead, the
 * sparsity-aware evaluator scores a candidate mapping across a sweep of
 * assumed activation densities (default {1.0, 0.8, 0.5, 0.2, 0.1}) and
 * combines them with the paper's density-weighted sum
 *     score = sum_i EDP(m | density_i) / density_i,
 * so the search returns one fixed mapping that is robust across the
 * whole sparsity range (Table 4).
 */
#pragma once

#include <vector>

#include "mappers/mapper.hpp"
#include "sparse/sparse_model.hpp"

namespace mse {

/** Configuration of the density sweep used while searching. */
struct SparsityAwareConfig
{
    /** Activation densities scored during the search. */
    std::vector<double> densities = {1.0, 0.8, 0.5, 0.2, 0.1};

    /** Weight density of the workload (fixed at deploy time). */
    double weight_density = 1.0;
};

/**
 * Build an EvalFn that scores mappings with the density-weighted sum.
 * The returned CostResult carries the combined score in `edp` (energy
 * and latency hold the density-weighted sums of their components) so any
 * Mapper minimizes it transparently. One call validates the mapping and
 * counts its traffic once, then runs the sparse post-pass once per
 * density (bit-identical to running `model` per density); the EvalFn is
 * a BatchableEval, so searches take the SoA batch route.
 *
 * The workload embedded in `space` supplies the tensor shapes; its
 * density annotations are overridden per sweep point.
 */
EvalFn makeSparsityAwareEvaluator(const MapSpace &space,
                                  const SparseCostModel &model,
                                  const SparsityAwareConfig &cfg);

/**
 * Build an EvalFn for a fixed ("static") activation density, the
 * baseline columns of Table 4: the planned sparse evaluator,
 * bit-identical to `model` at that density.
 */
EvalFn makeStaticDensityEvaluator(const MapSpace &space,
                                  const SparseCostModel &model,
                                  double activation_density,
                                  double weight_density = 1.0);

} // namespace mse
