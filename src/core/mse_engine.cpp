#include "core/mse_engine.hpp"

#include "common/thread_annotations.hpp"
#include "model/batch_eval.hpp"

namespace mse {

MseOutcome
MseEngine::runSearch(const MapSpace &space, const EvalFn &eval,
                     Mapper &mapper, const MseOptions &opts, Rng &rng)
{
    MseOutcome outcome;

    mapper.setInitialMappings(warmStartSeeds(space, replay_,
                                             opts.warm_start,
                                             opts.warm_seeds, rng));
    outcome.search = mapper.search(space, eval, opts.budget, rng);
    mapper.setInitialMappings({});

    outcome.generations_to_converge =
        indexToConverge(outcome.search.log.best_edp_per_generation);
    outcome.samples_to_converge =
        indexToConverge(outcome.search.log.best_edp_per_sample);

    if (opts.update_replay && outcome.search.found()) {
        replay_.push(space.workload(), outcome.search.best_mapping,
                     outcome.search.best_cost);
    }
    return outcome;
}

MseOutcome
MseEngine::optimize(const Workload &wl, Mapper &mapper,
                    const MseOptions &opts, Rng &rng)
{
    MapSpace space(wl, arch_);

    // One evaluation path: EvalPlan + SoA batch kernel, reached from
    // SearchTracker::evaluateBatch via the BatchableEval target. A
    // sparse search adds the sparse post-pass at the workload's own
    // densities. Objective re-targeting and Pareto capture run as the
    // evaluator's post hook.
    BatchCostEvaluator pipeline = [&] {
        if (!opts.sparse)
            return BatchCostEvaluator(wl, arch_);
        SparsePlan sparse(wl, saf_);
        sparse.addPass(wl);
        return BatchCostEvaluator(wl, arch_, std::move(sparse));
    }();

    // Pool workers run the hook concurrently, so the archive and the
    // sample counter sit behind a mutex. The frontier's final (energy,
    // latency) content is order-independent; only the payload sample
    // indices can differ between thread counts.
    ParetoArchive pareto;
    size_t sample_index = 0;
    Mutex pareto_mu;
    const Objective objective = opts.objective;
    pipeline.setPostHook([&](const Mapping &, CostResult &c) {
        applyObjective(c, objective);
        MutexLock lk(pareto_mu);
        if (c.valid)
            pareto.insert(c.energy_uj, c.latency_cycles, sample_index);
        ++sample_index;
    });

    const EvalFn eval = BatchableEval{&pipeline};
    MseOutcome outcome = runSearch(space, eval, mapper, opts, rng);
    outcome.pareto = std::move(pareto);
    return outcome;
}

} // namespace mse
