/**
 * @file
 * Full-model sweep orchestrator: map every layer of a network with one
 * call (the network-level use of the paper's Sec. 5.1 warm-start
 * technique, evaluated in Figs. 10-12).
 *
 * DNN models repeat layer shapes heavily — ResNet stages reuse one conv
 * shape several times, BERT repeats its four encoder GEMMs per block —
 * so a per-layer search loop wastes most of its budget re-solving
 * identical map spaces. ModelSweep exploits the structure in three
 * steps:
 *
 *  1. *Dedup.* Each layer is keyed by a canonical signature (workload
 *     dims, bounds, tensor projections and densities + the arch's
 *     structural parameters). Layers with equal signatures share one
 *     search job; the job's result is fanned back out bit-identically.
 *  2. *Schedule.* Unique jobs are clustered by a configurable
 *     similarity heuristic. Cluster representatives ("roots") run
 *     first, cold-started; the remaining jobs run second, warm-started
 *     from their root's optimized mapping via MapSpace::scaleFrom (the
 *     tile re-scaling machinery of Sec. 5.1.2). Jobs with no
 *     sufficiently similar root — or an incompatible dimensionality —
 *     fall back to a cold start.
 *  3. *Shard.* Within each of the two waves, jobs are independent and
 *     run as a sharded job set on ThreadPool::global(). Each job owns
 *     its engine, mapper, and an Rng seeded from
 *     (sweep seed, layer signature), so results are bit-identical for
 *     any MSE_THREADS value: layer-level parallelism simply displaces
 *     batch-level parallelism (nested parallelFor runs inline).
 *
 * The two-wave schedule is what makes warm-start and parallelism
 * compose deterministically: every warm job's seed mapping is fixed
 * before wave 2 starts, regardless of execution interleaving. A chained
 * schedule (each layer warm-starting from the previous) would serialize
 * the whole sweep.
 */
#pragma once

#include <string>
#include <vector>

#include "core/mse_engine.hpp"

namespace mse {

/** Canonical identity of one layer-search job (workload x arch). */
std::string layerSignature(const Workload &wl, const ArchConfig &arch);

/** Distance heuristic deciding warm-start eligibility. */
enum class SimilarityMetric
{
    /** Number of dimensions whose bounds differ (the paper's editing
     *  distance; coarse but cheap). */
    EditDistance,

    /** Sum of |log2(bound_a / bound_b)| over dimensions: refines edit
     *  distance by *how far* each bound moved, so a 2x channel bump
     *  beats a 16x one for the same edit count. */
    BoundRatio,
};

/** Printable name of a metric. */
const char *similarityMetricName(SimilarityMetric m);

/**
 * Distance between two workloads under a metric; +infinity when `b`'s
 * mappings cannot seed a search over `a` (different dimensionality).
 */
double workloadDistance(SimilarityMetric metric, const Workload &a,
                        const Workload &b);

/** Knobs of one full-model sweep. */
struct ModelSweepOptions
{
    /** Per-layer search options (budget, objective, sparse model).
     *  The warm_start strategy and update_replay fields are managed by
     *  the sweep itself and need not be set. A CancelToken placed in
     *  layer.budget.cancel cancels the whole sweep cooperatively:
     *  running jobs stop at their next budget check and jobs that have
     *  not started are skipped (their layer records stay invalid). */
    MseOptions layer;

    /** Warm-start propagation between similar unique layers. */
    bool warm_start = true;

    /** Similarity heuristic for warm-start eligibility. */
    SimilarityMetric metric = SimilarityMetric::EditDistance;

    /**
     * Maximum workloadDistance at which a solved root may seed another
     * layer's search; beyond it the layer cold-starts. In EditDistance
     * units this is a dimension count; in BoundRatio units, total log2
     * scale drift.
     */
    double max_distance = 4.0;

    /** Search each unique layer signature once and fan the result out.
     *  Off = every layer runs its own search (the baseline loop). */
    bool dedup = true;

    /** Run each wave's jobs on ThreadPool::global(); off = in order
     *  (results are identical either way). */
    bool parallel_layers = true;

    /** Master seed; each job derives its Rng from (seed, signature). */
    uint64_t seed = 0x5eed;
};

/** Per-layer outcome of a sweep, in the model's layer order. */
struct LayerSweepRecord
{
    size_t layer_index = 0;   ///< Position in the input layer list.
    std::string layer_name;
    std::string signature;    ///< Canonical layer signature.
    size_t job = 0;           ///< Index into ModelSweepResult::jobs.
    bool deduped = false;     ///< True = result copied from an earlier
                              ///  identical layer, no search run.
    bool warm_started = false;
    int warm_source_layer = -1; ///< Layer index of the seeding root.
    double warm_distance = -1.0;

    Mapping best_mapping;
    CostResult best_cost;

    /** Cost-model queries the owning job spent (0 samples were spent
     *  on this layer itself when deduped). */
    size_t samples = 0;
    size_t samples_to_converge = 0;
};

/** Sweep-level accounting. */
struct ModelSweepStats
{
    size_t total_layers = 0;
    size_t unique_jobs = 0;
    size_t dedup_hits = 0;   ///< Layers served by an earlier job.
    size_t warm_jobs = 0;    ///< Unique jobs seeded from a root.
    size_t cold_jobs = 0;

    /** Cost-model queries actually issued across unique jobs. */
    size_t samples_spent = 0;

    /** Queries a dedup-less per-layer loop would have issued. */
    size_t samples_without_dedup = 0;

    /** Mean samples-to-converge (99.5% criterion) per start kind. */
    double mean_converge_samples_warm = 0.0;
    double mean_converge_samples_cold = 0.0;

    double wall_seconds = 0.0;
};

/** Result of one full-model sweep. */
struct ModelSweepResult
{
    std::string model;
    std::string arch;
    std::string mapper;

    /** One record per input layer, input order preserved. */
    std::vector<LayerSweepRecord> layers;

    /** Full per-unique-job outcomes (search logs, Pareto fronts),
     *  indexed by LayerSweepRecord::job. */
    std::vector<MseOutcome> jobs;

    ModelSweepStats stats;

    /** Whole-model sums over layers (each duplicate counted). */
    double totalEnergyUj() const;
    double totalLatencyCycles() const;

    /** Sum of per-layer EDPs — the sweep's scalar objective. */
    double totalEdp() const;
};

/** Network-level MSE orchestrator for one accelerator. */
class ModelSweep
{
  public:
    /** The factory must be valid; each job constructs its own mapper. */
    explicit ModelSweep(ArchConfig arch,
                        MapperFactory factory = makeMapperFactory("gamma"));

    const ArchConfig &arch() const { return arch_; }

    /** Sweep every layer of `layers` (a model-zoo table or any list). */
    ModelSweepResult run(const std::string &model_name,
                        const std::vector<Workload> &layers,
                        const ModelSweepOptions &opts) const;

  private:
    ArchConfig arch_;
    MapperFactory factory_;
};

/**
 * Emit one CSV row per layer (dedup/warm columns included) — the
 * model-sweep analog of the bench CSV dumps. Returns false on I/O
 * failure.
 */
bool writeSweepCsv(const ModelSweepResult &result, const std::string &path);

/**
 * Emit the sweep as a JSON document (stats block + per-layer array),
 * the format BENCH_model_sweep.json aggregates. Returns false on I/O
 * failure.
 */
bool writeSweepJson(const ModelSweepResult &result, const std::string &path);

} // namespace mse
