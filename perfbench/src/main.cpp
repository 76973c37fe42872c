/**
 * @file
 * mse_bench: one run of one benchmark workload against a real
 * mse_serve daemon.
 *
 *   mse_bench --workload W --seed N --seconds S --trace 0|1
 *                    --serve PATH/TO/mse_serve --out DIR
 *
 * Generates the workload's inputs from the seed, starts the daemon
 * several times to time set-up (median), then plays rounds for S
 * seconds: each round starts a fresh daemon on a fresh copy of the store
 * and sends it the same requests. Every answer is checked with the
 * oracle, and every round must return the answers of the first. Prints
 * the end-to-end metrics (--trace 0) or the per-layer metrics of the
 * traced run (--trace 1). The last stdout line is the result object; the
 * line before it is "digest <hex>" for a round's answers.
 *
 * On a shared host one request's latency swings by up to 2x from round
 * to round, in slow spells of one request to whole rounds. Contention
 * only ever slows a request down, so a request's fastest time over the
 * rounds is the steadiest estimate of what it costs: the latency
 * metrics are order statistics over the requests of their fastest
 * times. searches_per_s is the plain rate over all rounds, which spread
 * less from run to run than the fastest round's rate. Slow spells that
 * last longer than a run are taken out by HostSpeed: the timing metrics
 * of --trace 0 are reported at the reference speed, next to the raw
 * values.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sched.h>
#include <string>

#include "common/json.hpp"
#include "calibrate.hpp"
#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "traffic.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/** Daemon starts per run; setup_s is their median. */
constexpr int kSetups = 21;

/** Pings the traced run times on the idle daemon (enough for a p99
 *  with 30 round trips beyond it). */
constexpr size_t kPings = 3000;

/** Requests beyond the percentile latency_tail_ms reports: ten, the
 *  least a tail estimate needs; each is already a fastest-of-rounds
 *  time, so it needs no more to be steady. */
constexpr double kTailBeyond = 10.0;

/** Reference passes timed before the first round and after each. */
constexpr int kReferencePasses = 5;

/** Rounds a run plays at the least, however short --seconds is, so the
 *  rounds are always compared. */
constexpr size_t kMinRounds = 2;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serve;
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--serve")
            a.serve = v;
        else if (k == "--out")
            a.out = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workload.empty() || a.serve.empty() || a.out.empty() ||
        a.seconds <= 0.0)
        throw std::invalid_argument(
            "usage: mse_bench --workload W --seed N --seconds S "
            "--trace 0|1 --serve MSE_SERVE --out DIR");
    return a;
}

/** CPUs this process may run on: the pool size of the batch replays. */
size_t
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

/** Fresh daemon store for one start: the generated file, or nothing. */
std::string
daemonStore(const Plan &plan, const std::string &dir)
{
    const std::string path = dir + "/daemon_store.jsonl";
    std::filesystem::remove(path);
    if (!plan.store_file.empty())
        std::filesystem::copy_file(plan.store_file, path);
    return path;
}

/** One round: a fresh daemon answering every request of the plan. */
struct Round
{
    TrafficResult traffic;
    std::map<size_t, Answer> answers; ///< Verified by the oracle.
    double peak_rss_mb = 0.0;
    double queue_full = 0.0;
};

/** The daemon's count of requests rejected with queue_full. */
double
queueFullRejects(uint16_t port)
{
    const auto stats = mse::parseJson(
        roundTrip(Socket(port).fd(), "{\"type\":\"stats\"}"));
    if (stats)
        if (const mse::JsonValue *st = stats->find("stats"))
            if (const mse::JsonValue *rq = st->find("requests"))
                return rq->getDouble("rejected_queue_full", 0.0);
    return 0.0;
}

Round
playRound(const Plan &plan, const Args &args)
{
    Round r;
    Daemon daemon(args.serve, daemonStore(plan, args.out),
                  args.out + "/daemon.log");
    r.traffic = drive(plan, daemon.port());
    r.queue_full = queueFullRejects(daemon.port());
    r.peak_rss_mb = daemon.peakRssMb();
    return r;
}

/** Every answer of `later` must be the one `first` gave. Returns the
 *  number of differences, each described in `errors`. */
size_t
compareRounds(const Round &first, const Round &later, size_t round,
              std::vector<std::string> &errors)
{
    size_t bad = 0;
    for (const auto &[index, a] : later.answers) {
        const auto it = first.answers.find(index);
        if (it == first.answers.end())
            continue; // Failed in the first round; counted as failed.
        const Answer &b = it->second;
        if (exact(a.score) != exact(b.score) || a.mapping != b.mapping ||
            a.store != b.store ||
            a.samples_to_incumbent != b.samples_to_incumbent) {
            ++bad;
            if (errors.size() < 20)
                errors.push_back("round " + std::to_string(round) +
                                 ", request " + std::to_string(index) +
                                 ": answer differs from the first round's");
        }
    }
    return bad;
}

struct EndToEnd
{
    std::vector<double> latency_ms; ///< Per request, fastest round.
    size_t searches = 0;            ///< Answered, every round.
    double wall = 0.0;              ///< The rounds' traffic time, s.
};

EndToEnd
endToEnd(const Plan &plan, const std::vector<Round> &rounds)
{
    EndToEnd e;
    std::vector<double> best(plan.requests.size(), HUGE_VAL);
    for (const Round &r : rounds) {
        for (const Outcome &o : r.traffic.outcomes) {
            if (!o.ok)
                continue;
            ++e.searches;
            best[o.index] = std::min(best[o.index], (o.done - o.start) * 1e3);
        }
        e.wall += r.traffic.wall;
    }
    for (const double ms : best)
        if (std::isfinite(ms))
            e.latency_ms.push_back(ms);
    return e;
}

/** Per-request timings of every round, for looking at a run after the
 *  fact. */
void
writeOutcomes(const Plan &plan, const std::vector<Round> &rounds,
              const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "round\tindex\tsparse\tok\tlatency_ms\t"
                    "daemon_wall_ms\tstore\n");
    for (size_t round = 0; round < rounds.size(); ++round) {
        const Round &r = rounds[round];
        for (const Outcome &o : r.traffic.outcomes) {
            const auto a = r.answers.find(o.index);
            std::fprintf(f, "%zu\t%zu\t%d\t%d\t%.4f\t%.4f\t%s\n", round,
                         o.index, plan.requests[o.index].sparse ? 1 : 0,
                         o.ok ? 1 : 0, (o.done - o.start) * 1e3,
                         a == r.answers.end() ? 0.0 : a->second.wall_ms,
                         a == r.answers.end() ? "-" : a->second.store.c_str());
        }
    }
    std::fclose(f);
}

void
printTable(const char *label, const EndToEnd &e, size_t rounds)
{
    const Tail tail = tailOf(e.latency_ms, kTailBeyond);
    std::printf("%-10s %zu rounds, %zu searches in %.3f s: %.3f/s; "
                "fastest per request: p50 %.3f ms, p%g %.3f ms (%zu "
                "beyond)\n",
                label, rounds, e.searches, e.wall,
                e.wall > 0.0 ? static_cast<double>(e.searches) / e.wall
                             : 0.0,
                median(e.latency_ms), tail.percentile, tail.value,
                tail.beyond);
}

int
run(const Args &args)
{
    std::filesystem::create_directories(args.out);

    // Generation results do not depend on the pool size; one lane is the
    // fastest on hosts where the pool is slower than inline.
    mse::ThreadPool::setGlobalThreads(1);
    const double gen_t0 = now();
    const Plan plan = makePlan(args.workload, args.seed, args.out);
    std::printf("workload %s seed %llu: %zu requests a round generated in "
                "%.2f s (store %zu entries)\n",
                plan.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                plan.requests.size(), now() - gen_t0, plan.store_entries);

    HostSpeed speed;
    speed.sample(kReferencePasses);

    // Set-up: spawn -> store loaded -> first ping answered. The traced
    // run then times pings on the last of these daemons, idle.
    std::vector<double> setups;
    std::vector<double> ping_us;
    {
        std::unique_ptr<Daemon> daemon;
        for (int i = 0; i < kSetups; ++i) {
            if (daemon)
                daemon->stop(false);
            const std::string store = daemonStore(plan, args.out);
            const double t0 = now();
            daemon = std::make_unique<Daemon>(args.serve, store,
                                              args.out + "/daemon.log");
            const std::string pong = roundTrip(Socket(daemon->port()).fd(),
                                               "{\"type\":\"ping\"}");
            setups.push_back(now() - t0);
            if (pong.compare(0, 10, "{\"ok\":true") != 0)
                throw std::runtime_error("first ping failed: " + pong);
        }
        if (args.trace)
            ping_us = pingRtts(daemon->port(), kPings);
    }

    // Rounds, the same in both modes, each checked by the oracle and
    // against the first.
    std::vector<Round> rounds;
    std::vector<std::string> errors;
    size_t mismatches = 0;
    const double window_t0 = now();
    while (rounds.size() < kMinRounds || now() < window_t0 + args.seconds) {
        rounds.push_back(playRound(plan, args));
        speed.sample(kReferencePasses);
        Round &r = rounds.back();
        mismatches +=
            verifyReplies(plan, r.traffic.outcomes, r.answers, errors);
        if (rounds.size() > 1)
            mismatches +=
                compareRounds(rounds.front(), r, rounds.size() - 1, errors);
    }
    const std::map<size_t, Answer> &answers = rounds.front().answers;
    const std::string digest = roundDigest(plan, answers);
    if (digest.empty())
        errors.push_back("a search of the first round has no verified "
                         "answer");

    writeOutcomes(plan, rounds, args.out + "/outcomes.tsv");
    const EndToEnd e2e = endToEnd(plan, rounds);
    std::vector<double> quality_scores, quality_incumbent;
    for (const auto &[index, a] : answers) {
        quality_scores.push_back(std::log(a.score));
        quality_incumbent.push_back(a.samples_to_incumbent);
    }
    size_t attempted = 0, failed = 0, verified = 0;
    std::vector<double> peak_rss;
    double queue_full = 0.0;
    Tracer tracer;
    for (const Round &r : rounds) {
        for (const Outcome &o : r.traffic.outcomes) {
            ++attempted;
            failed += o.ok ? 0 : 1;
            if (args.trace)
                tracer.add("client.request", o.start, o.done, o.index);
        }
        verified += r.answers.size();
        peak_rss.push_back(r.peak_rss_mb);
        queue_full += r.queue_full;
    }

    std::vector<Metric> metrics;
    std::vector<std::string> notes;
    std::printf("host speed: reference pass %.3f ms (%.3f ms at reference "
                "speed): slowdown %.4f\n",
                speed.medianMs(), HostSpeed::kReferenceMs, speed.slowdown());
    if (!args.trace) {
        const Tail tail = tailOf(e2e.latency_ms, kTailBeyond);
        const double setup = median(setups);
        const double p50 = median(e2e.latency_ms);
        const double rate = static_cast<double>(e2e.searches) / e2e.wall;
        std::printf("raw: setup_s %.6f, latency_p50_ms %.4f, latency_tail_ms "
                    "%.4f, searches_per_s %.4f\n",
                    setup, p50, tail.value, rate);
        const double slow = speed.slowdown();
        metrics = {
            {"setup_s", setup / slow, "s"},
            {"latency_p50_ms", p50 / slow, "ms"},
            {"latency_tail_ms", tail.value / slow, "ms"},
            {"searches_per_s", rate * slow, "1/s"},
            {"edp_geomean", std::exp(mean(quality_scores)), "uJ.cycles"},
            {"samples_to_incumbent_mean", mean(quality_incumbent),
             "samples"},
            {"peak_rss_mb", median(peak_rss), "MiB"},
        };
        printTable("daemon", e2e, rounds.size());
        std::printf("latency_tail_ms is p%g of %zu searches (%zu beyond)\n",
                    tail.percentile, e2e.latency_ms.size(), tail.beyond);
    } else {
        double exact_hits = 0, near_hits = 0, searches = 0;
        double sparse_hits = 0, sparse_lookups = 0;
        for (const auto &[index, a] : answers) {
            ++searches;
            exact_hits += a.store == "exact" ? 1 : 0;
            near_hits += a.store == "near" ? 1 : 0;
            if (plan.requests[index].sparse) {
                sparse_hits += a.cache_hits;
                sparse_lookups += a.cache_hits + a.cache_misses;
            }
        }

        LayerInputs in;
        in.plan = &plan;
        in.answers = &answers;
        in.work_dir = args.out;
        in.budget_s = args.seconds;
        in.nproc = cpuCount();
        for (const auto &[index, a] : answers)
            in.replay.push_back(index);
        metrics = runLayers(in, tracer, notes, errors);

        const auto ratio = [](double n, double d) {
            return d > 0.0 ? n / d : 0.0;
        };
        if (sparse_lookups == 0)
            notes.push_back("eval_cache.hit_ratio unavailable: no sparse "
                            "request");
        const std::vector<Metric> daemon_side = {
            {"event_server.ping_rtt_us", median(ping_us), "us"},
            {"event_server.ping_rtt_tail_us", tailOf(ping_us).value, "us"},
            {"service.queue_full_rejects", queue_full, "count"},
            {"mapping_store.exact_ratio", ratio(exact_hits, searches),
             "ratio"},
            {"mapping_store.near_ratio", ratio(near_hits, searches),
             "ratio"},
            {"eval_cache.hit_ratio", ratio(sparse_hits, sparse_lookups),
             "ratio"},
        };
        metrics.insert(metrics.end(), daemon_side.begin(),
                       daemon_side.end());

        printTable("daemon", e2e, rounds.size());
        std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms",
                    "self_ms");
        for (const auto &[name, s] : tracer.summary())
            std::printf("%-34s %8zu %12.3f %12.3f\n", name.c_str(), s.count,
                        s.total_s * 1e3, s.self_s * 1e3);
        const std::string trace_path = args.out + "/spans.jsonl";
        tracer.write(trace_path);
        std::printf("spans written to %s\n", trace_path.c_str());
    }

    for (const std::string &n : notes)
        std::printf("note: %s\n", n.c_str());
    for (const std::string &e : errors)
        std::printf("error: %s\n", e.c_str());
    for (const Metric &m : metrics)
        std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("oracle: %zu answers re-evaluated in %zu rounds, %zu "
                "mismatches\n",
                verified + mismatches, rounds.size(), mismatches);
    std::printf("digest %s\n", digest.empty() ? "none" : digest.c_str());

    const bool correct = mismatches == 0 && errors.empty();
    mse::JsonValue result = mse::JsonValue::object();
    result["correct"] = correct;
    result["attempted"] = static_cast<uint64_t>(attempted);
    result["failed"] = static_cast<uint64_t>(failed);
    mse::JsonValue &values = result["metrics"];
    values = mse::JsonValue::object();
    for (const Metric &m : metrics) {
        // JSON has no NaN/inf; a metric without data reads 0 (and the
        // run printed a note saying why).
        values[m.name]["value"] = std::isfinite(m.value) ? m.value : 0.0;
        values[m.name]["unit"] = m.unit;
    }
    // The writer prints the shortest text that reads back as the same
    // double, i.e. every digit the measurement has.
    std::printf("%s\n", result.dump().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mse_bench: %s\n", e.what());
        return 2;
    }
}
