/**
 * @file
 * The map-space exploration engine (the canonical MSE framework of
 * Fig. 2 in the paper).
 *
 * MseEngine ties the pieces together: it builds the map space for an
 * incoming workload, constructs the evaluation function (dense or sparse
 * cost model, or a caller-provided wrapper such as the sparsity-aware
 * scorer), applies warm-start seeding from its replay buffer, runs the
 * chosen mapper under a budget, maintains the (energy, latency) Pareto
 * frontier of every evaluated sample, and finally records the optimized
 * mapping back into the replay buffer for future warm-starts.
 */
#pragma once

#include <memory>

#include "common/pareto.hpp"
#include "core/convergence.hpp"
#include "core/objective.hpp"
#include "core/replay_buffer.hpp"
#include "core/warm_start.hpp"
#include "mappers/mapper.hpp"
#include "sparse/sparse_model.hpp"

namespace mse {

/** Per-run options. */
struct MseOptions
{
    SearchBudget budget;

    /**
     * Scalar the mapper minimizes. Edp is the raw cost model; any other
     * objective re-targets each result's edp field after the cost
     * model runs. With Edp the re-targeting is the identity, so
     * existing runs are unchanged bit for bit. Applies to optimize()
     * only — callers of optimizeWithEvaluator compose their own
     * evaluator.
     */
    Objective objective = Objective::Edp;

    /** Warm-start strategy (Sec. 5.1); None = random initialization. */
    WarmStartStrategy warm_start = WarmStartStrategy::None;

    /** Number of seed individuals injected on warm-start. Kept small so
     *  the seeded basin cannot crowd out population diversity. */
    size_t warm_seeds = 2;

    /** Record the outcome in the replay buffer. */
    bool update_replay = true;

    /** Use the sparse cost model (reads densities off the workload). */
    bool sparse = false;
};

/** Outcome of one MSE run. */
struct MseOutcome
{
    SearchResult search;

    /** Pareto frontier over all evaluated samples of this run. */
    ParetoArchive pareto;

    /** Generations to 99.5% of total improvement (Sec. 5.1.3). */
    size_t generations_to_converge = 0;

    /** Samples to 99.5% of total improvement. */
    size_t samples_to_converge = 0;

    /** Always 0; kept only because perfbench/ compiles against them. */
    size_t eval_cache_hits = 0;
    size_t eval_cache_misses = 0;

    double bestEdp() const { return search.best_cost.edp; }
};

/** Orchestrates mapping searches for a fixed accelerator. */
class MseEngine
{
  public:
    explicit MseEngine(ArchConfig arch,
                       SparseAcceleratorFeatures saf = {})
        : arch_(std::move(arch)), sparse_model_(saf)
    {}

    const ArchConfig &arch() const { return arch_; }
    ReplayBuffer &replay() { return replay_; }
    const ReplayBuffer &replay() const { return replay_; }

    /** Run MSE for one workload with the built-in cost models. */
    MseOutcome optimize(const Workload &wl, Mapper &mapper,
                        const MseOptions &opts, Rng &rng);

    /**
     * Run MSE against a caller-supplied evaluator (e.g. the
     * sparsity-aware scorer). Warm-start and the replay buffer still
     * apply; the Pareto archive records the evaluator's (energy,
     * latency) outputs.
     */
    MseOutcome optimizeWithEvaluator(const MapSpace &space,
                                     const EvalFn &eval, Mapper &mapper,
                                     const MseOptions &opts, Rng &rng);

  private:
    /**
     * Shared tail of both optimize paths: warm-start seeding, the
     * mapper run under `eval` (which already carries any Pareto/
     * objective wrapping), convergence accounting, and the replay
     * update. The Pareto archive is filled by the caller's evaluator
     * wrapper, not here.
     */
    MseOutcome runSearch(const MapSpace &space, const EvalFn &eval,
                         Mapper &mapper, const MseOptions &opts,
                         Rng &rng);

    ArchConfig arch_;
    SparseCostModel sparse_model_;
    ReplayBuffer replay_;
};

} // namespace mse
