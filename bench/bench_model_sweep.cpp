/**
 * @file
 * Full-model sweep bench: run the ModelSweep orchestrator over ResNet-18
 * and the BERT-large encoder GEMMs on both Table-1 accelerators and
 * emit BENCH_model_sweep.json.
 *
 * For every (model, arch) pair the sweep runs three times:
 *   1. warm, MSE_THREADS=1   — determinism reference
 *   2. warm, MSE_THREADS=4   — must be bit-identical to (1)
 *   3. cold (warm_start off) — sample-efficiency reference
 * and reports dedup savings (unique jobs vs. total layers) and how many
 * samples warm-started jobs needed to reach the cold run's incumbent
 * EDP (paper Figs. 10-11, at network scale).
 *
 * `bench_model_sweep smoke` (or MSE_BENCH_SMOKE=1) runs a tiny 3-layer
 * model on Accel-A only and exits non-zero if dedup, warm-start, or
 * determinism is broken — the CI smoke mode.
 */
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/convergence.hpp"
#include "core/model_sweep.hpp"
#include "mapping/mapping_io.hpp"
#include "workload/model_zoo.hpp"

using namespace mse;

namespace {

/** Smoke model: duplicate shape (dedup) + near shape (warm-start). */
std::vector<Workload>
tinyThreeLayerModel()
{
    return {
        makeConv2d("smoke_conv1", 1, 8, 8, 7, 7, 3, 3),
        makeConv2d("smoke_conv2", 1, 8, 8, 7, 7, 3, 3),
        makeConv2d("smoke_conv3", 1, 16, 8, 7, 7, 3, 3),
    };
}

struct SweepConfig
{
    std::string model;
    std::vector<Workload> layers;
    std::string arch_name;
    ArchConfig arch;
};

/** Everything BENCH_model_sweep.json records per (model, arch). */
struct SweepReport
{
    std::string model;
    std::string arch_name;
    ModelSweepResult warm; ///< warm run (4 threads; == 1-thread run)
    bool deterministic = false;

    /** Warm-vs-cold sample efficiency over warm-started unique jobs. */
    size_t jobs_compared = 0;
    size_t reached_cold_quality = 0;
    double mean_samples_warm = 0.0; ///< to reach cold incumbent EDP
    double mean_samples_cold = 0.0; ///< cold's samples to its incumbent
    double warm_speedup = 1.0;      ///< cold / warm sample means
};

/** Bitwise comparison of two sweep results (determinism check). */
bool
identicalSweeps(const ModelSweepResult &a, const ModelSweepResult &b)
{
    if (a.layers.size() != b.layers.size() ||
        a.stats.samples_spent != b.stats.samples_spent ||
        a.stats.unique_jobs != b.stats.unique_jobs ||
        a.totalEdp() != b.totalEdp())
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        if (a.layers[i].best_cost.edp != b.layers[i].best_cost.edp ||
            serializeMapping(a.layers[i].best_mapping) !=
                serializeMapping(b.layers[i].best_mapping))
            return false;
    }
    return true;
}

SweepReport
runConfig(const SweepConfig &cfg, size_t samples, uint64_t seed)
{
    ModelSweepOptions opts;
    opts.layer.budget.max_samples = samples;
    opts.seed = seed;

    ModelSweep sweep(cfg.arch);

    ThreadPool::setGlobalThreads(1);
    const ModelSweepResult serial =
        sweep.run(cfg.model, cfg.layers, opts);
    ThreadPool::setGlobalThreads(4);
    ModelSweepResult warm = sweep.run(cfg.model, cfg.layers, opts);

    ModelSweepOptions cold_opts = opts;
    cold_opts.warm_start = false;
    const ModelSweepResult cold =
        sweep.run(cfg.model, cfg.layers, cold_opts);

    SweepReport rep;
    rep.model = cfg.model;
    rep.arch_name = cfg.arch_name;
    rep.deterministic = identicalSweeps(serial, warm);

    // Sample efficiency: for each warm-started unique job, how many
    // samples the warm run needed to reach the cold run's incumbent
    // EDP, vs. how many the cold run itself needed. Job indices align
    // across runs because dedup order ignores the warm_start flag.
    double warm_sum = 0.0, cold_sum = 0.0;
    for (const auto &rec : warm.layers) {
        if (rec.deduped || !rec.warm_started)
            continue;
        const auto &wlog =
            warm.jobs[rec.job].search.log.best_edp_per_sample;
        const auto &clog =
            cold.jobs[rec.job].search.log.best_edp_per_sample;
        if (wlog.empty() || clog.empty())
            continue;
        // Quality bar: 99.5% of the cold run's total improvement (the
        // paper's Sec. 5.1.3 criterion, as in bench_fig11) — "how long
        // until each run matches default-MSE quality".
        const double cold_best = cold.jobs[rec.job].bestEdp();
        const double target =
            cold_best + 0.005 * (clog.front() - cold_best);
        const size_t w = indexToReach(wlog, target);
        const size_t c = indexToReach(clog, target);
        if (w < wlog.size())
            ++rep.reached_cold_quality;
        // Never-reached counts as the full budget (a fair penalty);
        // reached-at-start counts as one sample, as in bench_fig11.
        warm_sum += static_cast<double>(
            std::max<size_t>(std::min(w, wlog.size()), 1));
        cold_sum += static_cast<double>(
            std::max<size_t>(std::min(c, clog.size()), 1));
        ++rep.jobs_compared;
    }
    if (rep.jobs_compared > 0) {
        const double n = static_cast<double>(rep.jobs_compared);
        rep.mean_samples_warm = warm_sum / n;
        rep.mean_samples_cold = cold_sum / n;
        rep.warm_speedup = rep.mean_samples_cold / rep.mean_samples_warm;
    }

    const std::string dir = bench::csvDir();
    if (!dir.empty()) {
        const std::string base =
            dir + "/sweep_" + cfg.model + "_" + cfg.arch_name;
        writeSweepCsv(warm, base + ".csv");
        writeSweepJson(warm, base + ".json");
    }
    rep.warm = std::move(warm);
    return rep;
}

void
printReport(const SweepReport &r)
{
    const auto &st = r.warm.stats;
    std::printf("\n%s on %s: %zu layers -> %zu unique jobs "
                "(%zu deduped), %zu warm / %zu cold\n",
                r.model.c_str(), r.arch_name.c_str(), st.total_layers,
                st.unique_jobs, st.dedup_hits, st.warm_jobs,
                st.cold_jobs);
    std::printf("  samples: %zu spent vs %zu without dedup\n",
                st.samples_spent, st.samples_without_dedup);
    std::printf("  model totals: EDP %.4e, energy %.4e uJ, "
                "latency %.4e cycles\n",
                r.warm.totalEdp(), r.warm.totalEnergyUj(),
                r.warm.totalLatencyCycles());
    if (r.jobs_compared > 0) {
        std::printf("  warm vs cold: %zu/%zu warm jobs reached cold "
                    "incumbent EDP; mean samples %.0f (warm) vs %.0f "
                    "(cold), speedup %.2fx\n",
                    r.reached_cold_quality, r.jobs_compared,
                    r.mean_samples_warm, r.mean_samples_cold,
                    r.warm_speedup);
    }
    std::printf("  deterministic across MSE_THREADS=1 and 4: %s\n",
                r.deterministic ? "yes" : "NO");
}

bool
writeJson(const std::vector<SweepReport> &reports, size_t samples,
          uint64_t seed)
{
    JsonValue doc = JsonValue::object();
    doc["detected_cores"] =
        static_cast<uint64_t>(std::thread::hardware_concurrency());
    doc["samples_per_layer"] = static_cast<uint64_t>(samples);
    doc["seed"] = seed;
    JsonValue &sweeps = doc["sweeps"];
    sweeps = JsonValue::array();
    for (const auto &r : reports) {
        const auto &st = r.warm.stats;
        JsonValue row = JsonValue::object();
        row["model"] = r.model;
        row["arch"] = r.arch_name;
        row["total_layers"] = static_cast<uint64_t>(st.total_layers);
        row["unique_jobs"] = static_cast<uint64_t>(st.unique_jobs);
        row["dedup_hits"] = static_cast<uint64_t>(st.dedup_hits);
        row["warm_jobs"] = static_cast<uint64_t>(st.warm_jobs);
        row["cold_jobs"] = static_cast<uint64_t>(st.cold_jobs);
        row["samples_spent"] = static_cast<uint64_t>(st.samples_spent);
        row["samples_without_dedup"] =
            static_cast<uint64_t>(st.samples_without_dedup);
        row["total_edp"] = r.warm.totalEdp();
        row["total_energy_uj"] = r.warm.totalEnergyUj();
        row["total_latency_cycles"] = r.warm.totalLatencyCycles();
        JsonValue &wc = row["warm_vs_cold"];
        wc["jobs_compared"] = static_cast<uint64_t>(r.jobs_compared);
        wc["reached_cold_quality"] =
            static_cast<uint64_t>(r.reached_cold_quality);
        wc["mean_samples_warm_to_cold_edp"] = r.mean_samples_warm;
        wc["mean_samples_cold_to_incumbent"] = r.mean_samples_cold;
        wc["sample_speedup"] = r.warm_speedup;
        row["deterministic_threads_1_vs_4"] = r.deterministic;
        row["wall_seconds"] = st.wall_seconds;
        sweeps.push(std::move(row));
    }
    std::printf("\n");
    return bench::writeBenchJson("BENCH_model_sweep.json", doc);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        (argc > 1 && std::strcmp(argv[1], "smoke") == 0) ||
        bench::envSize("MSE_BENCH_SMOKE", 0) != 0;
    bench::banner("Full-model map-space sweep",
                  smoke ? "CI smoke: 3-layer model on Accel-A"
                        : "ResNet-18 and BERT-large encoder on "
                          "Accel-A / Accel-B with layer dedup and "
                          "cross-layer warm-start");
    const size_t samples =
        bench::envSize("MSE_BENCH_SAMPLES", smoke ? 300 : 2000);
    const uint64_t seed = bench::envSize("MSE_BENCH_SEED", 0x5eed);

    std::vector<SweepConfig> configs;
    if (smoke) {
        configs.push_back(
            {"tiny3", tinyThreeLayerModel(), "accel-A", accelA()});
    } else {
        configs.push_back(
            {"resnet18", resnet18Layers(), "accel-A", accelA()});
        configs.push_back(
            {"resnet18", resnet18Layers(), "accel-B", accelB()});
        configs.push_back(
            {"bert-large", bertLargeLayers(), "accel-A", accelA()});
        configs.push_back(
            {"bert-large", bertLargeLayers(), "accel-B", accelB()});
    }

    std::vector<SweepReport> reports;
    for (const auto &cfg : configs) {
        reports.push_back(runConfig(cfg, samples, seed));
        printReport(reports.back());
    }
    ThreadPool::setGlobalThreads(0); // back to auto

    writeJson(reports, samples, seed);

    // Acceptance gates. In smoke mode they make the binary a real CI
    // check; in full mode a failure still flags the run.
    bool ok = true;
    for (const auto &r : reports) {
        if (!r.deterministic) {
            std::fprintf(stderr, "FAIL: %s/%s not deterministic\n",
                         r.model.c_str(), r.arch_name.c_str());
            ok = false;
        }
        if (r.warm.stats.unique_jobs >= r.warm.stats.total_layers &&
            r.warm.stats.total_layers > 1) {
            std::fprintf(stderr,
                         "FAIL: %s/%s dedup found no repeated layers\n",
                         r.model.c_str(), r.arch_name.c_str());
            ok = false;
        }
        for (const auto &layer : r.warm.layers) {
            if (!layer.best_cost.valid) {
                std::fprintf(stderr, "FAIL: %s/%s layer %zu unmapped\n",
                             r.model.c_str(), r.arch_name.c_str(),
                             layer.layer_index);
                ok = false;
            }
        }
    }
    std::printf("\n%s\n", ok ? "all sweep checks passed"
                             : "SWEEP CHECKS FAILED");
    return ok ? 0 : 1;
}
