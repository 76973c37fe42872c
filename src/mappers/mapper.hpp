/**
 * @file
 * Common mapper interface (the "Exploration method" of Sec. 3.3).
 *
 * A mapper searches a MapSpace for mappings minimizing EDP, querying an
 * opaque evaluation function (the cost model — dense, sparse, or the
 * sparsity-aware multi-density wrapper of Sec. 5.2). Mappers honor a
 * sample budget and an optional wall-clock budget, and record a
 * convergence log (best-so-far EDP per evaluated sample and per
 * generation) that the Fig. 3/5/6/10 benches plot directly.
 */
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "mapping/map_space.hpp"
#include "model/cost_model.hpp"

namespace mse {

/**
 * Evaluation callback: mapping -> cost (infinite EDP when illegal).
 *
 * Re-entrancy contract: SearchTracker::evaluateBatch may invoke the
 * callback from multiple worker threads concurrently (one call per
 * candidate, never two calls on the same Mapping object). An EvalFn
 * must therefore be re-entrant: it may read shared immutable state
 * (workload, arch, a const cost model) but must not write shared state
 * without internal synchronization. Every built-in evaluator satisfies
 * this: CostModel::evaluate is stateless, SparseCostModel::evaluate is
 * const over value-captured inputs, the sparsity-aware scorers capture
 * by value, and MseEngine's Pareto-tracking wrapper serializes its
 * archive behind a mutex.
 */
using EvalFn = std::function<CostResult(const Mapping &)>;

/** Search termination criteria. */
struct SearchBudget
{
    /** Maximum cost-model queries. */
    size_t max_samples = 5000;

    /** Wall-clock limit in seconds (infinity = samples only). */
    double max_seconds = std::numeric_limits<double>::infinity();

    /**
     * Optional cooperative cancellation (dropped client, expired
     * deadline). Checked wherever the sample/time budgets are — between
     * generations — so a cancelled search stops promptly and returns
     * best-so-far. Null = never cancelled.
     */
    CancelTokenView cancel;

    /** True once cancellation has been requested (false without token). */
    bool cancelRequested() const { return cancel && cancel->cancelled(); }
};

/** Convergence trace of one search run. */
struct SearchLog
{
    /** Best-so-far EDP after each evaluated sample. */
    std::vector<double> best_edp_per_sample;

    /** Wall-clock seconds elapsed at each evaluated sample. */
    std::vector<double> seconds_per_sample;

    /** Best-so-far EDP at the end of each generation/iteration. */
    std::vector<double> best_edp_per_generation;

    /** Total cost-model queries issued. */
    size_t samples = 0;
};

/** Outcome of a search. */
struct SearchResult
{
    Mapping best_mapping;
    CostResult best_cost;
    SearchLog log;

    bool found() const { return best_cost.valid; }
};

/** Abstract search algorithm over a map space. */
class Mapper
{
  public:
    virtual ~Mapper() = default;

    /** Short identifier used in bench output (e.g. "gamma"). */
    virtual std::string name() const = 0;

    /** Run the search. */
    virtual SearchResult search(const MapSpace &space, const EvalFn &eval,
                                const SearchBudget &budget, Rng &rng) = 0;

    /**
     * Seed the search with initial candidate mappings (the warm-start
     * hook of Sec. 5.1). Mappers that cannot exploit seeds ignore them.
     */
    virtual void setInitialMappings(std::vector<Mapping> seeds)
    {
        (void)seeds;
    }
};

/**
 * Factory producing a fresh mapper instance per call. Mappers carry
 * per-search state (warm-start seeds), so orchestrators that run many
 * searches — possibly concurrently, as ModelSweep does — construct one
 * instance per job instead of sharing one.
 */
using MapperFactory = std::function<std::unique_ptr<Mapper>()>;

/**
 * Factory for a mapper by its name() string: "gamma", "standard-ga",
 * "random-pruned", "annealing", or "hill-climb" (mind-mappings is
 * excluded — its surrogate training makes it unsuitable for unattended
 * sweeps). Returns an empty factory for unknown names.
 */
MapperFactory makeMapperFactory(const std::string &name);

/**
 * Bookkeeping shared by all mappers: evaluates a mapping, appends to the
 * log, and tracks the incumbent. Returns the cost.
 */
class SearchTracker
{
  public:
    SearchTracker(const EvalFn &eval, const SearchBudget &budget);

    /** True once the sample or time budget is exhausted. */
    bool exhausted() const;

    /** Evaluate and record one candidate. */
    const CostResult &evaluate(const Mapping &m);

    /**
     * Evaluate a batch of candidates, fanning the cost-model queries
     * out to ThreadPool::global() and reducing the results **in
     * submission order**, so the incumbent, best_edp_per_sample, and
     * every other log are bit-identical to a fully serial run
     * (MSE_THREADS=1) for the same candidate sequence. Evaluates only
     * the prefix of the batch that fits the remaining sample budget;
     * the returned vector (valid until the next evaluate/evaluateBatch
     * call) may thus be shorter than the batch. The wall-clock budget
     * is checked at batch granularity, never mid-batch, to keep the
     * candidate sequence deterministic.
     *
     * When the evaluator is a BatchableEval (the engine's batch
     * evaluator), the whole batch is handed to it in one call;
     * otherwise candidates are fanned out to the callback one at a
     * time. Results are bit-identical either way.
     */
    const std::vector<CostResult> &
    evaluateBatch(const std::vector<Mapping> &batch);

    /** Seconds since construction. */
    double elapsedSeconds() const;

    /** Close out a generation (records best-so-far). */
    void endGeneration();

    SearchResult takeResult();

    double bestEdp() const { return best_edp_; }
    size_t samples() const { return log_.samples; }

  private:
    /** Ordered reduce: fold one evaluated candidate into the logs. */
    void record(const Mapping &m, const CostResult &cost);

    /**
     * Same, with the timestamp supplied by the caller — evaluateBatch
     * reads the clock once per batch (the whole batch was evaluated by
     * the time the reduce loop runs, so per-sample reads would differ
     * only by the reduce loop's own microseconds) and hands the shared
     * value here.
     */
    void record(const Mapping &m, const CostResult &cost, double secs);

    const EvalFn &eval_;
    SearchBudget budget_;
    double t0_;
    double best_edp_ = std::numeric_limits<double>::infinity();
    Mapping best_mapping_;
    CostResult best_cost_;
    CostResult last_cost_;
    std::vector<CostResult> batch_results_;
    SearchLog log_;
};

} // namespace mse
