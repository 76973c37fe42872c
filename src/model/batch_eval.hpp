/**
 * @file
 * Structure-of-arrays batch evaluation and the batch evaluator.
 *
 * evaluateBatchSoA is the vectorizable core: it lays the candidates'
 * tile factors out as contiguous per-(level, dim) arrays so the
 * cumulative-factor, spatial-product, and footprint inner loops run
 * over candidates (plain auto-vectorizable loops, no intrinsics), then
 * funnels every structurally valid candidate through the same
 * finishPlanned tail as the scalar planned path — which is what makes
 * its CostResults bit-identical to CostModel::evaluate by construction.
 *
 * BatchCostEvaluator is the engine-facing evaluator built on top: one
 * EvalPlan per (workload, arch) pair, the SoA kernel over each batch
 * and an optional post hook on every result. It plugs into
 * SearchTracker::evaluateBatch via BatchableEval so mappers need no
 * new wiring. Nothing is memoized: a planned evaluation costs under a
 * microsecond, less than hashing and probing a store would.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "model/eval_plan.hpp"

namespace mse {

/** Unused; kept only because perfbench/ compiles against it. */
struct EvalHint
{
    const Mapping *parent = nullptr;
};

/**
 * Evaluate a batch of mappings through the SoA kernel. out must be at
 * least as long as batch; out[i] receives a CostResult bit-identical to
 * CostModel::evaluate on batch[i]. Stateless and thread-safe (scratch
 * is thread-local); processes the batch in cache-sized tiles.
 */
void evaluateBatchSoA(const EvalPlan &plan, std::span<const Mapping> batch,
                      std::span<CostResult> out);

/**
 * The batched evaluator: the SoA kernel, then the post hook, per
 * candidate. One instance serves one (workload, arch) pair.
 *
 * Thread safety: evaluateBatch fans out over ThreadPool::global()
 * internally and must be called from one thread at a time (the search
 * thread); evaluateOne is safe concurrently.
 */
class BatchCostEvaluator
{
  public:
    /**
     * Applied to every result after the raw cost is known — objective
     * re-targeting and Pareto capture live here. May run concurrently
     * from pool workers; synchronize internally.
     */
    using PostHook = std::function<void(const Mapping &, CostResult &)>;

    BatchCostEvaluator(const Workload &wl, const ArchConfig &arch)
        : plan_(EvalPlan::build(wl, arch))
    {}

    void setPostHook(PostHook post) { post_ = std::move(post); }

    /**
     * Evaluate batch[0..n) into out[0..n). Results (and the post hook)
     * are bit-identical to CostModel::evaluate at every thread count.
     * hints is ignored; the parameter stays for perfbench/ callers.
     */
    void evaluateBatch(const Mapping *batch, const EvalHint *hints,
                       size_t n, CostResult *out);

    /** Scalar entry point (SearchTracker::evaluate goes through this). */
    CostResult evaluateOne(const Mapping &m);

    const EvalPlan &plan() const { return plan_; }

    /** Always 0; kept only because perfbench/ compiles against them. */
    size_t cacheHits() const { return 0; }
    size_t cacheMisses() const { return 0; }
    size_t storeSize() const { return 0; }

  private:
    EvalPlan plan_;
    PostHook post_;
};

/**
 * EvalFn-compatible callable advertising batch capability. Mappers keep
 * calling a plain EvalFn; SearchTracker::evaluateBatch introspects the
 * std::function target and routes whole batches to the evaluator when
 * it is one of these.
 */
struct BatchableEval
{
    BatchCostEvaluator *impl = nullptr;

    CostResult
    operator()(const Mapping &m) const
    {
        return impl->evaluateOne(m);
    }
};

} // namespace mse
