/**
 * @file
 * The map-space exploration engine (the canonical MSE framework of
 * Fig. 2 in the paper).
 *
 * MseEngine ties the pieces together: it builds the map space for an
 * incoming workload, constructs the planned batch evaluator (dense, or
 * with the sparse post-pass), applies warm-start seeding from its
 * replay buffer, runs the chosen mapper under a budget, maintains the
 * (energy, latency) Pareto frontier of every evaluated sample, and
 * finally records the optimized mapping back into the replay buffer for
 * future warm-starts.
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
     * only — runSearch scores with the caller's evaluator as is.
     */
    Objective objective = Objective::Edp;

    /** Warm-start strategy (Sec. 5.1); None = random initialization. */
    WarmStartStrategy warm_start = WarmStartStrategy::None;

    /** Number of seed individuals injected on warm-start. Kept small so
     *  the seeded basin cannot crowd out population diversity. */
    size_t warm_seeds = 2;

    /** Record the outcome in the replay buffer. */
    bool update_replay = true;

    /** Score with the sparse post-pass (reads densities off the
     *  workload); bit-identical to SparseCostModel::evaluate. */
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
        : arch_(std::move(arch)), saf_(saf)
    {}

    const ArchConfig &arch() const { return arch_; }
    ReplayBuffer &replay() { return replay_; }
    const ReplayBuffer &replay() const { return replay_; }

    /**
     * Run MSE for one workload: the planned batch evaluator (dense, or
     * sparse at the workload's densities when opts.sparse), objective
     * re-targeting and Pareto capture, then runSearch.
     */
    MseOutcome optimize(const Workload &wl, Mapper &mapper,
                        const MseOptions &opts, Rng &rng);

    /**
     * The search tail optimize() runs under its evaluator: warm-start
     * seeding from the replay buffer, the mapper under `eval`,
     * convergence accounting, and the replay update. No Pareto capture
     * — the returned archive is empty. Scoring a search with another
     * evaluator (a scalar-model oracle, say) goes through here.
     */
    MseOutcome runSearch(const MapSpace &space, const EvalFn &eval,
                         Mapper &mapper, const MseOptions &opts,
                         Rng &rng);

  private:
    ArchConfig arch_;
    SparseAcceleratorFeatures saf_;
    ReplayBuffer replay_;
};

} // namespace mse
