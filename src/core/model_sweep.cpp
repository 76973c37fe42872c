#include "core/model_sweep.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/math_util.hpp"
#include "common/thread_pool.hpp"

namespace mse {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** One unique-signature search job being scheduled. */
struct Job
{
    Workload wl;           ///< First-occurrence workload.
    std::string signature;
    size_t first_layer = 0;
    int root = -1;         ///< Seeding job index; -1 = cold start.
    double distance = -1.0;
    MseOutcome outcome;
};

} // namespace

std::string
layerSignature(const Workload &wl, const ArchConfig &arch)
{
    return wl.signature() + "@" + arch.signature();
}

const char *
similarityMetricName(SimilarityMetric m)
{
    switch (m) {
      case SimilarityMetric::EditDistance: return "edit-distance";
      case SimilarityMetric::BoundRatio: return "bound-ratio";
    }
    return "unknown";
}

double
workloadDistance(SimilarityMetric metric, const Workload &a,
                 const Workload &b)
{
    if (a.numDims() != b.numDims())
        return std::numeric_limits<double>::infinity();
    for (int d = 0; d < a.numDims(); ++d) {
        if (a.dimNames()[d] != b.dimNames()[d])
            return std::numeric_limits<double>::infinity();
    }
    switch (metric) {
      case SimilarityMetric::EditDistance:
        return static_cast<double>(editDistance(a, b));
      case SimilarityMetric::BoundRatio: {
        double dist = 0.0;
        for (int d = 0; d < a.numDims(); ++d) {
            dist += std::fabs(std::log2(static_cast<double>(a.bound(d)) /
                                        static_cast<double>(b.bound(d))));
        }
        return dist;
      }
    }
    return std::numeric_limits<double>::infinity();
}

ModelSweep::ModelSweep(ArchConfig arch, MapperFactory factory)
    : arch_(std::move(arch)), factory_(std::move(factory))
{
}

ModelSweepResult
ModelSweep::run(const std::string &model_name,
                const std::vector<Workload> &layers,
                const ModelSweepOptions &opts) const
{
    const double t0 = nowSeconds();

    ModelSweepResult res;
    res.model = model_name;
    res.arch = arch_.name;
    res.mapper = factory_()->name();

    // --- 1. Dedup: one job per distinct layer signature. -------------
    std::vector<Job> jobs;
    std::vector<size_t> layer_job(layers.size(), 0);
    std::unordered_map<std::string, size_t> job_by_sig;
    for (size_t i = 0; i < layers.size(); ++i) {
        const std::string sig = layerSignature(layers[i], arch_);
        const auto it = job_by_sig.find(sig);
        if (opts.dedup && it != job_by_sig.end()) {
            layer_job[i] = it->second;
            continue;
        }
        layer_job[i] = jobs.size();
        if (opts.dedup)
            job_by_sig.emplace(sig, jobs.size());
        Job job;
        job.wl = layers[i];
        job.signature = sig;
        job.first_layer = i;
        jobs.push_back(std::move(job));
    }

    // --- 2. Schedule: cluster roots (cold) vs. members (warm). -------
    // A job joins the nearest already-chosen root within max_distance;
    // otherwise it becomes a root itself. Greedy in first-occurrence
    // order, so a network's leading layer of each shape family anchors
    // its cluster — the compiler-pipeline order the paper assumes.
    std::vector<size_t> wave_cold, wave_warm;
    for (size_t j = 0; j < jobs.size(); ++j) {
        if (opts.warm_start) {
            int best = -1;
            double best_dist = std::numeric_limits<double>::infinity();
            for (const size_t r : wave_cold) {
                const double d =
                    workloadDistance(opts.metric, jobs[j].wl, jobs[r].wl);
                if (d < best_dist) {
                    best_dist = d;
                    best = static_cast<int>(r);
                }
            }
            if (best >= 0 && best_dist <= opts.max_distance) {
                jobs[j].root = best;
                jobs[j].distance = best_dist;
                wave_warm.push_back(j);
                continue;
            }
        }
        wave_cold.push_back(j);
    }

    // --- 3. Execute the two waves as sharded job sets. ---------------
    // Each job is self-contained (own engine, mapper, RNG), so
    // a wave's jobs run concurrently on the pool without ordering
    // effects; nested batch evaluation degrades to inline loops.
    const auto run_job = [&](size_t j) {
        Job &job = jobs[j];
        // Cooperative cancellation: a not-yet-started job is skipped
        // outright (its outcome stays invalid); a started job stops at
        // its next budget check because the token rides in the layer
        // budget the engine passes down to every SearchTracker.
        if (opts.layer.budget.cancelRequested())
            return;
        MseOptions layer_opts = opts.layer;
        layer_opts.update_replay = false;
        layer_opts.warm_start = WarmStartStrategy::None;
        MseEngine engine(arch_);
        if (job.root >= 0) {
            const Job &src = jobs[static_cast<size_t>(job.root)];
            engine.replay().push(src.wl, src.outcome.search.best_mapping,
                                 src.outcome.search.best_cost);
            layer_opts.warm_start = WarmStartStrategy::BySimilarity;
        }
        const auto mapper = factory_();
        Rng rng(opts.seed ^ fnv1a64(job.signature));
        job.outcome = engine.optimize(job.wl, *mapper, layer_opts, rng);
    };
    const auto run_wave = [&](const std::vector<size_t> &wave) {
        if (opts.parallel_layers) {
            ThreadPool::global().parallelFor(
                wave.size(), [&](size_t i) { run_job(wave[i]); });
        } else {
            for (const size_t j : wave)
                run_job(j);
        }
    };
    run_wave(wave_cold);
    run_wave(wave_warm);

    // --- 4. Fan results back out to every layer. ---------------------
    res.layers.reserve(layers.size());
    for (size_t i = 0; i < layers.size(); ++i) {
        const Job &job = jobs[layer_job[i]];
        LayerSweepRecord rec;
        rec.layer_index = i;
        rec.layer_name = layers[i].name();
        rec.signature = job.signature;
        rec.job = layer_job[i];
        rec.deduped = i != job.first_layer;
        rec.warm_started = job.root >= 0;
        rec.warm_source_layer = job.root >= 0
            ? static_cast<int>(jobs[static_cast<size_t>(job.root)]
                                   .first_layer)
            : -1;
        rec.warm_distance = job.distance;
        rec.best_mapping = job.outcome.search.best_mapping;
        rec.best_cost = job.outcome.search.best_cost;
        rec.samples = job.outcome.search.log.samples;
        rec.samples_to_converge = job.outcome.samples_to_converge;
        res.layers.push_back(std::move(rec));
    }

    // --- 5. Aggregate accounting. ------------------------------------
    ModelSweepStats &st = res.stats;
    st.total_layers = layers.size();
    st.unique_jobs = jobs.size();
    double warm_converge = 0.0, cold_converge = 0.0;
    for (const Job &job : jobs) {
        st.samples_spent += job.outcome.search.log.samples;
        if (job.root >= 0) {
            ++st.warm_jobs;
            warm_converge +=
                static_cast<double>(job.outcome.samples_to_converge);
        } else {
            ++st.cold_jobs;
            cold_converge +=
                static_cast<double>(job.outcome.samples_to_converge);
        }
    }
    if (st.warm_jobs > 0)
        st.mean_converge_samples_warm =
            warm_converge / static_cast<double>(st.warm_jobs);
    if (st.cold_jobs > 0)
        st.mean_converge_samples_cold =
            cold_converge / static_cast<double>(st.cold_jobs);
    for (const auto &rec : res.layers) {
        if (rec.deduped)
            ++st.dedup_hits;
        st.samples_without_dedup += rec.samples;
    }

    res.jobs.reserve(jobs.size());
    for (Job &job : jobs)
        res.jobs.push_back(std::move(job.outcome));

    st.wall_seconds = nowSeconds() - t0;
    return res;
}

double
ModelSweepResult::totalEnergyUj() const
{
    double sum = 0.0;
    for (const auto &rec : layers)
        sum += rec.best_cost.energy_uj;
    return sum;
}

double
ModelSweepResult::totalLatencyCycles() const
{
    double sum = 0.0;
    for (const auto &rec : layers)
        sum += rec.best_cost.latency_cycles;
    return sum;
}

double
ModelSweepResult::totalEdp() const
{
    double sum = 0.0;
    for (const auto &rec : layers)
        sum += rec.best_cost.edp;
    return sum;
}

namespace {

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Short per-layer signature id for human-scannable output. */
std::string
sigId(const std::string &signature)
{
    return fnv1a64Hex(signature);
}

} // namespace

bool
writeSweepCsv(const ModelSweepResult &result, const std::string &path)
{
    CsvWriter csv(path);
    if (!csv.ok())
        return false;
    csv.writeRow({"layer_index", "layer_name", "signature", "job",
                  "deduped", "warm_started", "warm_source_layer",
                  "warm_distance", "edp", "energy_uj", "latency_cycles",
                  "samples", "samples_to_converge"});
    for (const auto &r : result.layers) {
        csv.writeRow({std::to_string(r.layer_index), r.layer_name,
                      sigId(r.signature), std::to_string(r.job),
                      r.deduped ? "1" : "0", r.warm_started ? "1" : "0",
                      std::to_string(r.warm_source_layer),
                      fmt(r.warm_distance), fmt(r.best_cost.edp),
                      fmt(r.best_cost.energy_uj),
                      fmt(r.best_cost.latency_cycles),
                      std::to_string(r.samples),
                      std::to_string(r.samples_to_converge)});
    }
    return true;
}

bool
writeSweepJson(const ModelSweepResult &result, const std::string &path)
{
    const ModelSweepStats &st = result.stats;
    JsonValue doc = JsonValue::object();
    doc["model"] = result.model;
    doc["arch"] = result.arch;
    doc["mapper"] = result.mapper;
    JsonValue &stats = doc["stats"];
    stats["total_layers"] = st.total_layers;
    stats["unique_jobs"] = st.unique_jobs;
    stats["dedup_hits"] = st.dedup_hits;
    stats["warm_jobs"] = st.warm_jobs;
    stats["cold_jobs"] = st.cold_jobs;
    stats["samples_spent"] = st.samples_spent;
    stats["samples_without_dedup"] = st.samples_without_dedup;
    stats["mean_converge_samples_warm"] = st.mean_converge_samples_warm;
    stats["mean_converge_samples_cold"] = st.mean_converge_samples_cold;
    stats["wall_seconds"] = st.wall_seconds;
    JsonValue &total = doc["total"];
    total["energy_uj"] = result.totalEnergyUj();
    total["latency_cycles"] = result.totalLatencyCycles();
    total["edp_sum"] = result.totalEdp();
    JsonValue layers = JsonValue::array();
    for (const auto &r : result.layers) {
        JsonValue l = JsonValue::object();
        l["index"] = r.layer_index;
        l["name"] = r.layer_name;
        l["sig"] = sigId(r.signature);
        l["job"] = r.job;
        l["deduped"] = r.deduped;
        l["warm"] = r.warm_started;
        l["warm_source_layer"] = r.warm_source_layer;
        l["warm_distance"] = r.warm_distance;
        l["edp"] = r.best_cost.edp;
        l["energy_uj"] = r.best_cost.energy_uj;
        l["latency_cycles"] = r.best_cost.latency_cycles;
        l["samples"] = r.samples;
        l["samples_to_converge"] = r.samples_to_converge;
        layers.push(std::move(l));
    }
    doc["layers"] = std::move(layers);
    return writeJsonFile(path, doc);
}

} // namespace mse
