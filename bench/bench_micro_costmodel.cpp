/**
 * @file
 * Micro-benchmarks (google-benchmark) for the methodology-critical
 * throughput numbers: the paper's MSE loop assumes an analytical cost
 * model that evaluates a mapping in ~ms or less; our implementation
 * targets microseconds. Also measures mapper sample-generation rates,
 * which drive the iso-time comparison of Fig. 3.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"
#include "core/mse_engine.hpp"
#include "core/sparsity_aware.hpp"
#include "mappers/gamma.hpp"
#include "mappers/random_pruned.hpp"
#include "model/batch_eval.hpp"
#include "model/eval_plan.hpp"
#include "model/sparse_pass.hpp"
#include "service/mapping_store.hpp"
#include "sparse/sparse_model.hpp"
#include "workload/model_zoo.hpp"

using namespace mse;

namespace {

void
BM_DenseCostModelConv(benchmark::State &state)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(1);
    std::vector<Mapping> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(space.randomMapping(rng));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CostModel::evaluate(wl, arch, pool[i++ % pool.size()]));
    }
}
BENCHMARK(BM_DenseCostModelConv);

void
BM_DenseCostModelGemm(benchmark::State &state)
{
    const Workload wl = bertKqv();
    const ArchConfig arch = accelA();
    MapSpace space(wl, arch);
    Rng rng(2);
    std::vector<Mapping> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(space.randomMapping(rng));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            CostModel::evaluate(wl, arch, pool[i++ % pool.size()]));
    }
}
BENCHMARK(BM_DenseCostModelGemm);

void
BM_SparseCostModel(benchmark::State &state)
{
    Workload wl = resnetConv4();
    applyDensities(wl, 0.5, 0.5);
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(3);
    std::vector<Mapping> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(space.randomMapping(rng));
    const SparseCostModel model;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(wl, arch, pool[i++ % pool.size()]));
    }
}
BENCHMARK(BM_SparseCostModel);

/** BM_SparseCostModel's workload, arch and mapping pool. */
struct SparseBenchSetup
{
    Workload wl = resnetConv4();
    ArchConfig arch = accelB();
    std::vector<Mapping> pool;

    explicit SparseBenchSetup(size_t n)
    {
        applyDensities(wl, 0.5, 0.5);
        MapSpace space(wl, arch);
        Rng rng(3); // same stream as BM_SparseCostModel
        for (size_t i = 0; i < n; ++i)
            pool.push_back(space.randomMapping(rng));
    }
};

void
BM_SparsePlannedEval(benchmark::State &state)
{
    // The same sparse model as BM_SparseCostModel, as the scalar
    // planned path: one EvalPlan + SparsePlan, the post-pass over the
    // planned access rows, scratch reused across evaluations.
    const SparseBenchSetup b(64);
    const EvalPlan plan = EvalPlan::build(b.wl, b.arch);
    SparsePlan sparse(b.wl, SparseAcceleratorFeatures{});
    sparse.addPass(b.wl);
    EvalScratch scratch;
    CostResult out;
    size_t i = 0;
    for (auto _ : state) {
        evaluatePlannedSparse(plan, sparse, b.pool[i++ % b.pool.size()],
                              scratch, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_SparsePlannedEval);

void
BM_SparseSoABatchEval(benchmark::State &state)
{
    // The SoA kernel's sparse tail over a population-sized batch; the
    // reported time is per batch, items-per-second is per evaluation.
    const SparseBenchSetup b(128);
    const EvalPlan plan = EvalPlan::build(b.wl, b.arch);
    SparsePlan sparse(b.wl, SparseAcceleratorFeatures{});
    sparse.addPass(b.wl);
    std::vector<CostResult> out(b.pool.size());
    for (auto _ : state) {
        evaluateBatchSoA(plan, b.pool, out, &sparse);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(b.pool.size()));
}
BENCHMARK(BM_SparseSoABatchEval);

void
BM_SparsityAwareEval(benchmark::State &state)
{
    // One sparsity-aware score (the paper's K = 5 default densities)
    // per iteration through the EvalFn a search calls: the rows once,
    // then five post-passes. Compare with 5 x BM_SparseCostModel.
    const SparseBenchSetup b(64);
    const MapSpace space(resnetConv4(), b.arch);
    const EvalFn eval = makeSparsityAwareEvaluator(
        space, SparseCostModel(), SparsityAwareConfig{});
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(eval(b.pool[i++ % b.pool.size()]));
}
BENCHMARK(BM_SparsityAwareEval);

void
BM_RngChance(benchmark::State &state)
{
    // StandardGA's per-gene mutation draw.
    Rng rng(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.chance(0.1));
}
BENCHMARK(BM_RngChance);

void
BM_RngIndex(benchmark::State &state)
{
    // The divisor pick of a random factorization (resnet_conv4's C=256
    // has 9 divisors).
    Rng rng(9);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.index(9));
}
BENCHMARK(BM_RngIndex);

void
BM_RandomMappingGeneration(benchmark::State &state)
{
    MapSpace space(resnetConv4(), accelB());
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(space.randomMapping(rng));
}
BENCHMARK(BM_RandomMappingGeneration);

void
BM_GammaCrossoverMutateRepair(benchmark::State &state)
{
    MapSpace space(resnetConv4(), accelB());
    Rng rng(5);
    const Mapping a = space.randomMapping(rng);
    const Mapping b = space.randomMapping(rng);
    for (auto _ : state) {
        Mapping child = GammaMapper::crossover(a, b, rng);
        GammaMapper::mutateTile(space, child, rng);
        space.repair(child);
        benchmark::DoNotOptimize(child);
    }
}
BENCHMARK(BM_GammaCrossoverMutateRepair);

void
BM_PlannedEvalConv(benchmark::State &state)
{
    // The scalar planned path: same analytical model as
    // BM_DenseCostModelConv, but with workload/arch constants folded
    // into an EvalPlan once and scratch reused across evaluations.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    const EvalPlan plan = EvalPlan::build(wl, arch);
    MapSpace space(wl, arch);
    Rng rng(1); // same stream as BM_DenseCostModelConv
    std::vector<Mapping> pool;
    for (int i = 0; i < 64; ++i)
        pool.push_back(space.randomMapping(rng));
    EvalScratch scratch;
    CostResult out;
    size_t i = 0;
    for (auto _ : state) {
        evaluatePlanned(plan, pool[i++ % pool.size()], scratch, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_PlannedEvalConv);

void
BM_SoABatchEvalConv(benchmark::State &state)
{
    // The SoA kernel over a population-sized batch; the reported time
    // is per batch, items-per-second is per evaluation.
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    const EvalPlan plan = EvalPlan::build(wl, arch);
    MapSpace space(wl, arch);
    Rng rng(1);
    std::vector<Mapping> pool;
    for (int i = 0; i < 128; ++i)
        pool.push_back(space.randomMapping(rng));
    std::vector<CostResult> out(pool.size());
    for (auto _ : state) {
        evaluateBatchSoA(plan, pool, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pool.size()));
}
BENCHMARK(BM_SoABatchEvalConv);

void
BM_MappingValidation(benchmark::State &state)
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    Rng rng(6);
    const Mapping m = space.randomMapping(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(validateMapping(wl, arch, m));
}
BENCHMARK(BM_MappingValidation);

void
BM_EndToEndGammaSearch(benchmark::State &state)
{
    // Whole-search throughput (samples/second at a 500-sample budget)
    // on the path the daemon serves: MseEngine::optimize, i.e. Gamma's
    // generation loop over the planned SoA batch evaluator.
    const Workload wl = resnetConv4();
    MseEngine engine(accelB());
    MseOptions opts;
    opts.budget.max_samples = 500;
    opts.update_replay = false;
    uint64_t seed = 0;
    for (auto _ : state) {
        GammaMapper gamma;
        Rng rng(seed++);
        benchmark::DoNotOptimize(engine.optimize(wl, gamma, opts, rng));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            500);
}
BENCHMARK(BM_EndToEndGammaSearch)->Unit(benchmark::kMillisecond);

void
BM_RandomPrunedSearch(benchmark::State &state)
{
    // A cold Random-Pruned request as the daemon serves it: 2000 draws,
    // dedupe and planned evaluation through MseEngine::optimize.
    const Workload wl = resnetConv4();
    MseEngine engine(accelB());
    MseOptions opts;
    opts.budget.max_samples = 2000;
    opts.update_replay = false;
    uint64_t seed = 0;
    for (auto _ : state) {
        RandomPrunedMapper mapper;
        Rng rng(seed++);
        benchmark::DoNotOptimize(engine.optimize(wl, mapper, opts, rng));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            2000);
}
BENCHMARK(BM_RandomPrunedSearch)->Unit(benchmark::kMillisecond);

/** Mapping with every loop at the outermost level (the store does not
 *  care whether it is good, only that it round-trips). */
Mapping
allAtTop(const Workload &wl, const ArchConfig &arch)
{
    Mapping m(arch.numLevels(), wl.numDims());
    for (int d = 0; d < wl.numDims(); ++d)
        m.level(arch.numLevels() - 1).temporal[d] = wl.bound(d);
    return m;
}

/**
 * Fill `store` in the shape of the warm-start benchmark's: 684 lattice
 * GEMMs at B=16/256 (points >= 4 apart in BoundRatio distance) plus
 * 6000 B=1 fillers, over Accel-A and Accel-B. Each query is one
 * dimension x2 off a lattice point, i.e. a Near hit at distance 1;
 * query_arch[i] indexes the arch of queries[i] in {accelA, accelB}.
 */
void
fillNearStore(MappingStore &store, std::vector<Workload> &queries,
              std::vector<size_t> &query_arch)
{
    const ArchConfig archs[] = {accelA(), accelB()};
    const int lattice[] = {2, 4, 6, 8, 10, 12, 14};
    for (size_t a = 0; a < 2; ++a)
        for (const int64_t batch : {16, 256})
            for (const int cm : lattice)
                for (const int ck : lattice)
                    for (const int cn : lattice) {
                        if ((cm + ck + cn) % 4 != 0)
                            continue;
                        const Workload wl =
                            makeGemm("gemm", batch, int64_t{1} << cm,
                                     int64_t{1} << ck, int64_t{1} << cn);
                        store.recordIfBetter(wl, archs[a], Objective::Edp,
                                             false, allAtTop(wl, archs[a]),
                                             1.0, 1.0, 1.0, 200);
                        queries.push_back(makeGemm(
                            "gemm", batch, int64_t{2} << cm,
                            int64_t{1} << ck, int64_t{1} << cn));
                        query_arch.push_back(a);
                    }
    Rng rng(7);
    const auto dim = [&] {
        return static_cast<int64_t>(std::exp2(4.0 + 8.0 * rng.uniformReal()));
    };
    while (store.size() < queries.size() + 6000) {
        const ArchConfig &arch = archs[store.size() % 2];
        const Workload wl = makeGemm("gemm", 1, dim(), dim(), dim());
        store.recordIfBetter(wl, arch, Objective::Edp, false,
                             allAtTop(wl, arch), 1.0, 1.0, 1.0, 0);
    }
}

void
BM_StoreLookupNear(benchmark::State &state)
{
    const ArchConfig archs[] = {accelA(), accelB()};
    // mse-lint: allow(store-construct) in-memory fixture, never replicated
    MappingStore store;
    std::vector<Workload> queries;
    std::vector<size_t> query_arch;
    fillNearStore(store, queries, query_arch);
    size_t i = 0;
    for (auto _ : state) {
        const size_t q = i++ % queries.size();
        benchmark::DoNotOptimize(store.lookup(queries[q],
                                              archs[query_arch[q]],
                                              Objective::Edp, false, 8.0));
    }
    state.counters["entries"] = static_cast<double>(store.size());
}
BENCHMARK(BM_StoreLookupNear)->Unit(benchmark::kMicrosecond);

void
BM_StoreLoad(benchmark::State &state)
{
    // The BM_StoreLookupNear store written to a file, one encodeEntry
    // line per record, then read back whole by each load(): decoding,
    // keying and indexing, i.e. the daemon's startup cost per store.
    // mse-lint: allow(store-construct) in-memory fixture, never replicated
    MappingStore source;
    std::vector<Workload> queries;
    std::vector<size_t> query_arch;
    fillNearStore(source, queries, query_arch);
    const std::string path = "mse_bench_store_load.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        for (const StoreEntry &e : source.entriesBetterThan({}, 0))
            out << MappingStore::encodeEntry(e) << "\n";
    }
    // mse-lint: allow(store-construct) read-only fixture, never replicated
    MappingStore store(path);
    for (auto _ : state)
        benchmark::DoNotOptimize(store.load());
    std::remove(path.c_str());
    state.counters["entries"] = static_cast<double>(store.size());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(store.size()));
}
BENCHMARK(BM_StoreLoad)->Unit(benchmark::kMillisecond);

/**
 * Batched-evaluation throughput sweep (the perf-trajectory artifact of
 * the parallel eval layer). Replays a GA-population-shaped candidate
 * stream — elites copied verbatim across generations plus offspring
 * that escape mutation — through SearchTracker::evaluateBatch at
 * 1/2/4/8 threads, on the legacy per-mapping path and the planned
 * batch path, and emits BENCH_eval_throughput.json so the numbers can
 * be tracked over time.
 */
struct ThroughputSample
{
    unsigned threads = 1;
    bool plan = false; ///< batch evaluator (EvalPlan+SoA) vs. legacy
    double evals_per_sec = 0.0;
    double speedup = 1.0; ///< vs. 1 thread, legacy
};

std::vector<Mapping>
gaPopulationStream(const MapSpace &space, size_t generations,
                   size_t pop_size, size_t elites)
{
    // Elite genomes ride along unchanged each generation; offspring
    // clone a parent and mutate with probability < 1, so a realistic
    // fraction of the stream is exact duplicates.
    Rng rng(0xbeef);
    std::vector<Mapping> pop;
    for (size_t i = 0; i < pop_size; ++i)
        pop.push_back(space.randomMapping(rng));
    std::vector<Mapping> stream(pop);
    for (size_t g = 1; g < generations; ++g) {
        std::vector<Mapping> next;
        next.reserve(pop_size);
        for (size_t e = 0; e < elites; ++e)
            next.push_back(pop[e]);
        while (next.size() < pop_size) {
            Mapping child = pop[rng.index(pop.size())];
            if (rng.chance(0.6)) {
                GammaMapper::mutateTile(space, child, rng);
                space.repair(child);
            }
            next.push_back(std::move(child));
        }
        pop.swap(next);
        stream.insert(stream.end(), pop.begin(), pop.end());
    }
    return stream;
}

ThroughputSample
measureThroughput(const std::vector<Mapping> &stream, const Workload &wl,
                  const ArchConfig &arch, unsigned threads, bool use_plan)
{
    ThreadPool::setGlobalThreads(threads);
    BatchCostEvaluator pipeline(wl, arch);

    EvalFn eval;
    if (use_plan) {
        eval = BatchableEval{&pipeline};
    } else {
        eval = [&wl, &arch](const Mapping &m) {
            return CostModel::evaluate(wl, arch, m);
        };
    }
    SearchBudget budget;
    budget.max_samples = stream.size();
    SearchTracker tracker(eval, budget);

    // Replay the stream generation-by-generation through one reusable
    // buffer, the way a real GA hands candidates to evaluateBatch:
    // freshly written by the search thread and therefore cache-hot.
    // (Walking a pre-materialized multi-megabyte stream instead would
    // charge both paths a cold-memory tax no actual search pays.) The
    // per-generation copy stands in for candidate construction and is
    // deliberately inside the timed region.
    const size_t batch = 128; // gaPopulationStream's pop_size
    std::vector<Mapping> gen;
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < stream.size(); i += batch) {
        const size_t n = std::min(batch, stream.size() - i);
        gen.assign(stream.begin() + i, stream.begin() + i + n);
        tracker.evaluateBatch(gen);
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    ThroughputSample s;
    s.threads = threads;
    s.plan = use_plan;
    s.evals_per_sec =
        secs > 0.0 ? static_cast<double>(stream.size()) / secs : 0.0;
    return s;
}

/**
 * Raw evaluator throughput: the cost kernel alone — no tracker, no
 * store, no search bookkeeping — evaluating one generation-sized
 * candidate buffer repeatedly. A steady-state GA's working set is its
 * population, rewritten in place each generation and therefore
 * cache-resident; repeated evaluation of a hot 128-candidate buffer is
 * that configuration, and isolates the number the eval-plan rewrite
 * targets. (The sweep rows above stream 16K distinct candidates and so
 * also pay the harness's cold-memory traffic, identically per path.)
 */
double
measureKernelRate(const std::vector<Mapping> &stream, const Workload &wl,
                  const ArchConfig &arch, bool soa)
{
    const EvalPlan plan = EvalPlan::build(wl, arch);
    const size_t n = std::min<size_t>(128, stream.size());
    // Mid-stream slice: generation 0 is uniformly random and mostly
    // invalid; later generations have been repaired, matching a
    // steady-state population.
    const size_t at = (stream.size() - n) / 2;
    const std::vector<Mapping> gen(stream.begin() + at,
                                   stream.begin() + at + n);
    std::vector<CostResult> out(n);
    const size_t passes = std::max<size_t>(1, stream.size() / n);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t p = 0; p < passes; ++p) {
        if (soa) {
            evaluateBatchSoA(plan,
                             std::span<const Mapping>(gen.data(), n),
                             std::span<CostResult>(out.data(), n));
        } else {
            for (const Mapping &m : gen) {
                CostResult r = CostModel::evaluate(wl, arch, m);
                benchmark::DoNotOptimize(r);
            }
        }
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return secs > 0.0
               ? static_cast<double>(passes * n) / secs
               : 0.0;
}

// Single-thread plan-path rate of this run, consumed by the gate.
double g_plan_uncached = 0.0;
// In-run legacy-vs-planned speedup ratio (machine-independent).
double g_speedup_uncached = 0.0;
// Raw scalar-vs-SoA kernel rates and their in-run ratio.
double g_kernel_scalar = 0.0;
double g_kernel_soa = 0.0;
double g_kernel_speedup = 0.0;

void
runThroughputSweep()
{
    const Workload wl = resnetConv4();
    const ArchConfig arch = accelB();
    MapSpace space(wl, arch);
    const std::vector<Mapping> stream =
        gaPopulationStream(space, /*generations=*/128, /*pop_size=*/128,
                           /*elites=*/32);

    // Thread counts beyond the machine's real cores only oversubscribe
    // and report flat rows (a 1-core CI runner used to print four
    // identical "speedups"), so the sweep stops at the detected count.
    const unsigned detected_cores =
        std::max(1u, std::thread::hardware_concurrency());
    std::vector<unsigned> thread_counts;
    for (const unsigned t : {1u, 2u, 4u, 8u}) {
        if (t == 1u || t <= detected_cores)
            thread_counts.push_back(t);
    }

    std::vector<ThroughputSample> samples;
    for (const bool use_plan : {false, true}) {
        for (const unsigned threads : thread_counts) {
            // Warm-up pass to populate caches and park workers.
            measureThroughput(stream, wl, arch, threads, use_plan);
            // Best-of-N: on a contended box a single pass can land in
            // a noisy scheduling window; the max over a few passes is
            // the closest observable to the machine's actual
            // capability, and taking it for every row keeps the
            // speedup ratios like-for-like.
            ThroughputSample best;
            for (size_t rep = 0;
                 rep < bench::envSize("MSE_BENCH_REPS", 3); ++rep) {
                ThroughputSample cur =
                    measureThroughput(stream, wl, arch, threads, use_plan);
                if (cur.evals_per_sec > best.evals_per_sec)
                    best = cur;
            }
            samples.push_back(best);
        }
    }
    ThreadPool::setGlobalThreads(0); // back to auto

    // Raw kernel pair, best-of-N like the sweep rows.
    double kernel_scalar = 0.0;
    double kernel_soa = 0.0;
    for (const bool soa : {false, true}) {
        measureKernelRate(stream, wl, arch, soa); // warm-up
        double best = 0.0;
        for (size_t rep = 0; rep < bench::envSize("MSE_BENCH_REPS", 3);
             ++rep)
            best = std::max(best,
                            measureKernelRate(stream, wl, arch, soa));
        (soa ? kernel_soa : kernel_scalar) = best;
    }

    const double baseline = samples.front().evals_per_sec;
    for (auto &s : samples)
        s.speedup = baseline > 0.0 ? s.evals_per_sec / baseline : 1.0;

    // Single-thread rows of each path, measured in this very run — the
    // speedup factor below always compares numbers from the same
    // binary on the same machine.
    auto single = [&](bool plan) {
        for (const auto &s : samples) {
            if (s.threads == 1 && s.plan == plan)
                return s.evals_per_sec;
        }
        return 0.0;
    };
    const double legacy_uncached = single(false);
    const double plan_uncached = single(true);

    std::printf("\nEval throughput (GA-population stream, %zu "
                "candidates, batch 128, resnet_conv4 on accel-B, "
                "%u detected core%s)\n",
                stream.size(), detected_cores,
                detected_cores == 1 ? "" : "s");
    if (thread_counts.back() < 8u) {
        std::printf("(thread counts > %u skipped: wider rows would "
                    "only restate the %u-core ceiling)\n",
                    detected_cores, detected_cores);
    }
    std::printf("%8s %6s %14s %9s\n", "path", "threads", "evals/sec",
                "speedup");
    for (const auto &s : samples) {
        std::printf("%8s %6u %14.0f %8.2fx\n",
                    s.plan ? "plan" : "legacy", s.threads,
                    s.evals_per_sec, s.speedup);
    }
    std::printf("single-thread plan speedup: %.2fx\n",
                legacy_uncached > 0.0 ? plan_uncached / legacy_uncached
                                      : 0.0);
    std::printf("raw kernel (no tracker): scalar %.0f evals/s, SoA %.0f "
                "evals/s, speedup %.2fx\n",
                kernel_scalar, kernel_soa,
                kernel_scalar > 0.0 ? kernel_soa / kernel_scalar : 0.0);

    JsonValue doc = JsonValue::object();
    doc["workload"] = "resnet_conv4";
    doc["arch"] = "accel-B";
    doc["candidates"] = static_cast<uint64_t>(stream.size());
    doc["batch_size"] = 128;
    doc["hardware_threads"] =
        static_cast<uint64_t>(ThreadPool::configuredThreads());
    doc["detected_cores"] = static_cast<uint64_t>(detected_cores);
    JsonValue &st = doc["single_thread"];
    st = JsonValue::object();
    st["legacy_uncached_evals_per_sec"] = legacy_uncached;
    st["plan_uncached_evals_per_sec"] = plan_uncached;
    st["plan_speedup_uncached"] =
        legacy_uncached > 0.0 ? plan_uncached / legacy_uncached : 0.0;
    st["kernel_scalar_evals_per_sec"] = kernel_scalar;
    st["kernel_soa_evals_per_sec"] = kernel_soa;
    st["kernel_speedup"] =
        kernel_scalar > 0.0 ? kernel_soa / kernel_scalar : 0.0;
    JsonValue &results = doc["results"];
    results = JsonValue::array();
    for (const auto &s : samples) {
        JsonValue row = JsonValue::object();
        row["path"] = s.plan ? "plan" : "legacy";
        row["threads"] = static_cast<uint64_t>(s.threads);
        row["evals_per_sec"] = s.evals_per_sec;
        row["speedup_vs_serial_uncached"] = s.speedup;
        results.push(std::move(row));
    }
    bench::writeBenchJson("BENCH_eval_throughput.json", doc);

    g_plan_uncached = plan_uncached;
    g_speedup_uncached =
        legacy_uncached > 0.0 ? plan_uncached / legacy_uncached : 0.0;
    g_kernel_scalar = kernel_scalar;
    g_kernel_soa = kernel_soa;
    g_kernel_speedup =
        kernel_scalar > 0.0 ? kernel_soa / kernel_scalar : 0.0;
}

/**
 * Perf-regression gate: compare this run's single-thread numbers
 * against the checked-in baseline
 * (bench/baselines/eval_throughput.json, its absolute path fixed at
 * configure time so any working directory finds it; overridable via
 * MSE_PERF_BASELINE). The primary checks are the in-run
 * legacy-vs-planned *speedup ratios*, which cancel machine speed and
 * load, so the gate is meaningful on CI boxes unlike the baseline
 * machine's absolute rates; set MSE_PERF_ABSOLUTE=1 to also gate the
 * absolute evals/s (same-machine tracking). A generous tolerance
 * (default 30%, override via MSE_PERF_TOLERANCE) absorbs residual
 * noise while still catching a real pipeline regression. Missing
 * baseline = skip (new machines and local runs shouldn't fail),
 * regression = nonzero exit so CI fails.
 */
int
perfRegressionGate()
{
    const char *env = std::getenv("MSE_PERF_BASELINE");
    const std::string path = env ? env : MSE_PERF_BASELINE_DEFAULT;
    std::ifstream in(path);
    if (!in) {
        std::printf("perf gate: no baseline at %s, skipping\n",
                    path.c_str());
        return 0;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto doc = parseJson(ss.str());
    if (!doc || !doc->isObject()) {
        std::fprintf(stderr, "perf gate: cannot parse %s\n",
                     path.c_str());
        return 1;
    }
    const JsonValue *st = doc->find("single_thread");
    const double tol = bench::envDouble("MSE_PERF_TOLERANCE", 0.30);
    const bool absolute = bench::envSize("MSE_PERF_ABSOLUTE", 0) != 0;
    int failures = 0;
    const struct
    {
        const char *key;
        double current;
        bool ratio; ///< machine-independent; always gated
    } checks[] = {
        {"kernel_speedup", g_kernel_speedup, true},
        {"plan_speedup_uncached", g_speedup_uncached, true},
        {"plan_uncached_evals_per_sec", g_plan_uncached, false},
    };
    for (const auto &c : checks) {
        if (!c.ratio && !absolute)
            continue;
        const double base = st ? st->getDouble(c.key, 0.0) : 0.0;
        if (base <= 0.0)
            continue;
        const double floor = base * (1.0 - tol);
        const bool ok = c.current >= floor;
        std::printf("perf gate: %s %.3g vs baseline %.3g "
                    "(floor %.3g, tolerance %.0f%%) %s\n",
                    c.key, c.current, base, floor, 100.0 * tol,
                    ok ? "OK" : "REGRESSION");
        if (!ok)
            ++failures;
    }
    return failures > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runThroughputSweep();
    return perfRegressionGate();
}
