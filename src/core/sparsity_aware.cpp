#include "core/sparsity_aware.hpp"

#include <memory>

#include "model/batch_eval.hpp"

namespace mse {

namespace {

/** An EvalFn owning a sparse batch evaluator, so searches under it take
 *  SearchTracker's whole-batch SoA route. */
EvalFn
ownedBatchEval(const Workload &wl, const ArchConfig &arch,
               SparsePlan sparse)
{
    auto impl =
        std::make_shared<BatchCostEvaluator>(wl, arch, std::move(sparse));
    BatchCostEvaluator *raw = impl.get();
    return BatchableEval{raw, std::move(impl)};
}

} // namespace

EvalFn
makeSparsityAwareEvaluator(const MapSpace &space,
                           const SparseCostModel &model,
                           const SparsityAwareConfig &cfg)
{
    // One pass per density level over rows computed once per candidate.
    // Validity does not depend on density (capacity overflow spills), so
    // the one structural check rejects a candidate exactly when some
    // density level would: the found mapping is deployable at every
    // density.
    SparsePlan sparse(space.workload(), model.features());
    sparse.combine = true;
    for (const double d : cfg.densities) {
        Workload wl = space.workload();
        applyDensities(wl, cfg.weight_density, d);
        sparse.addPass(wl, 1.0 / d);
    }
    return ownedBatchEval(space.workload(), space.arch(), std::move(sparse));
}

EvalFn
makeStaticDensityEvaluator(const MapSpace &space,
                           const SparseCostModel &model,
                           double activation_density, double weight_density)
{
    Workload wl = space.workload();
    applyDensities(wl, weight_density, activation_density);
    SparsePlan sparse(wl, model.features());
    sparse.addPass(wl);
    return ownedBatchEval(wl, space.arch(), std::move(sparse));
}

} // namespace mse
