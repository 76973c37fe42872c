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
MseEngine::optimizeWithEvaluator(const MapSpace &space, const EvalFn &eval,
                                 Mapper &mapper, const MseOptions &opts,
                                 Rng &rng)
{
    // Wrap the evaluator to maintain the Pareto frontier of the run.
    // evaluateBatch calls this concurrently from pool workers, so the
    // archive and the sample counter sit behind a mutex. The frontier's
    // final (energy, latency) content is order-independent; only the
    // payload sample indices can differ between thread counts.
    ParetoArchive pareto;
    size_t sample_index = 0;
    Mutex pareto_mu;
    EvalFn tracked = [&](const Mapping &m) {
        const CostResult c = eval(m);
        {
            MutexLock lk(pareto_mu);
            if (c.valid) {
                pareto.insert(c.energy_uj, c.latency_cycles,
                              sample_index);
            }
            ++sample_index;
        }
        return c;
    };

    MseOutcome outcome = runSearch(space, tracked, mapper, opts, rng);
    outcome.pareto = std::move(pareto);
    return outcome;
}

MseOutcome
MseEngine::optimize(const Workload &wl, Mapper &mapper,
                    const MseOptions &opts, Rng &rng)
{
    MapSpace space(wl, arch_);

    if (!opts.sparse) {
        // Planned path: EvalPlan + SoA batch kernel, reached from
        // SearchTracker::evaluateBatch via the BatchableEval target.
        // Objective re-targeting and Pareto capture run as the
        // evaluator's post hook.
        BatchCostEvaluator pipeline(wl, arch_);

        ParetoArchive pareto;
        size_t sample_index = 0;
        Mutex pareto_mu;
        const Objective objective = opts.objective;
        pipeline.setPostHook([&](const Mapping &, CostResult &c) {
            if (objective != Objective::Edp && c.valid)
                c.edp = objectiveScore(c, objective);
            MutexLock lk(pareto_mu);
            if (c.valid)
                pareto.insert(c.energy_uj, c.latency_cycles,
                              sample_index);
            ++sample_index;
        });

        const EvalFn eval = BatchableEval{&pipeline};
        MseOutcome outcome = runSearch(space, eval, mapper, opts, rng);
        outcome.pareto = std::move(pareto);
        return outcome;
    }

    // Sparse: the plan mirrors the dense model only, so the scalar
    // sparse model runs per mapping, re-targeted to the objective
    // (identity for Edp).
    const EvalFn eval = makeObjectiveEvaluator(
        [wl, arch = arch_, model = sparse_model_](const Mapping &m) {
            return model.evaluate(wl, arch, m);
        },
        opts.objective);
    return optimizeWithEvaluator(space, eval, mapper, opts, rng);
}

} // namespace mse
