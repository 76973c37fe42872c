#include "core/mse_engine.hpp"

#include <memory>

#include "common/thread_annotations.hpp"
#include "model/batch_eval.hpp"
#include "model/eval_cache.hpp"

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
        // Pipelined path: EvalPlan + SoA batch kernel + memoization
        // store + incremental offspring re-evaluation, reached from
        // SearchTracker::evaluateBatch via the BatchableEval target.
        // Objective re-targeting and Pareto capture run as the
        // pipeline's post hook, so they apply to cache hits too and
        // memoized entries keep raw (energy, latency) — the same
        // layering as the sparse wrappers below.
        BatchCostEvaluator::Options popts;
        popts.use_cache = opts.use_eval_cache;
        popts.use_incremental = opts.use_incremental;
        popts.shards = opts.eval_cache_shards;
        BatchCostEvaluator pipeline(wl, arch_, popts);

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
        if (opts.use_eval_cache) {
            outcome.eval_cache_hits = pipeline.cacheHits();
            outcome.eval_cache_misses = pipeline.cacheMisses();
        }
        return outcome;
    }

    // Sparse: the plan mirrors the dense model only, so the scalar
    // sparse model runs per mapping.
    const Workload sparse_wl = wl;
    const ArchConfig arch = arch_;
    const SparseCostModel model = sparse_model_;
    EvalFn eval = [sparse_wl, arch, model](const Mapping &m) {
        return model.evaluate(sparse_wl, arch, m);
    };

    // Memoize duplicate genomes behind the canonical-mapping cache. The
    // cache is scoped to this run: its key does not encode the workload
    // or architecture.
    std::shared_ptr<EvalCache> cache;
    if (opts.use_eval_cache) {
        cache = std::make_shared<EvalCache>(opts.eval_cache_shards);
        EvalFn inner = std::move(eval);
        eval = [cache, inner](const Mapping &m) {
            return cache->getOrCompute(m, inner);
        };
    }

    // Re-target the scalar the mapper minimizes (identity for Edp).
    // Outside the cache so memoized entries keep raw (energy, latency).
    eval = makeObjectiveEvaluator(std::move(eval), opts.objective);

    MseOutcome outcome =
        optimizeWithEvaluator(space, eval, mapper, opts, rng);
    if (cache) {
        outcome.eval_cache_hits = cache->hits();
        outcome.eval_cache_misses = cache->misses();
    }
    return outcome;
}

} // namespace mse
