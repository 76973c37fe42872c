/**
 * @file
 * Service throughput bench: cold vs store-warmed request streams over
 * the real TCP front end.
 *
 * Starts mse_serve's stack in-process (MseService + ServiceServer on
 * an ephemeral loopback port), then plays the same layer stream twice
 * over line-delimited JSON:
 *
 *   pass 1 (cold):  empty mapping store — every request cold-starts;
 *   pass 2 (warm):  the store now holds pass 1's best mappings — every
 *                   request warm-starts from an exact store hit.
 *
 * Reports per-pass QPS and client-observed latency percentiles, plus
 * the warm-start win: mean samples-to-incumbent (how many cost-model
 * samples until the search matches the stored best's quality) must
 * collapse on the warm pass, mirroring the paper's Sec. 5.1 result at
 * service granularity. Emits BENCH_service_throughput.json.
 *
 * A second section sweeps the *front end* itself: ping streams over
 * 1/32/256 (full mode: +1024) concurrent connections, with and
 * without request pipelining. Pings cost the service nothing, so the
 * sweep isolates what the paper's service layer adds around the
 * search: connection handling, framing, and reply dispatch. The
 * headline figure is the QPS at 256 connections, pipeline 16.
 *
 * `bench_service_throughput smoke` (or MSE_BENCH_SMOKE=1) shrinks the
 * stream and budgets for CI.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/net.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "workload/workload_io.hpp"

using namespace mse;

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** One request line of the bench stream. */
std::string
searchRequestLine(const Workload &wl, size_t samples)
{
    JsonValue req = JsonValue::object();
    req["type"] = "search";
    req["workload"] = serializeWorkload(wl);
    req["arch"] = "accel-A";
    req["max_samples"] = static_cast<uint64_t>(samples);
    return req.dump();
}

/** Client-side measurements of one pass over the stream. */
struct PassResult
{
    std::vector<double> latencies_s; // per request, sorted afterwards
    double wall_seconds = 0.0;
    double sum_samples_to_incumbent = 0.0;
    double sum_score = 0.0;
    size_t exact_hits = 0;
    size_t failures = 0;

    double qps() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(latencies_s.size()) / wall_seconds
            : 0.0;
    }

    double
    percentile(double p) const
    {
        if (latencies_s.empty())
            return 0.0;
        const double idx =
            p * static_cast<double>(latencies_s.size() - 1);
        const size_t lo = static_cast<size_t>(idx);
        const size_t hi = std::min(lo + 1, latencies_s.size() - 1);
        const double frac = idx - static_cast<double>(lo);
        return latencies_s[lo] * (1.0 - frac) + latencies_s[hi] * frac;
    }
};

/** Play the stream once over one TCP connection. */
PassResult
runPass(uint16_t port, const std::vector<std::string> &lines)
{
    PassResult out;
    std::string err;
    const int fd = connectTcp("127.0.0.1", port, &err);
    if (fd < 0) {
        std::fprintf(stderr, "connect failed: %s\n", err.c_str());
        out.failures = lines.size();
        return out;
    }
    LineReader reader(fd);
    const double t0 = nowSeconds();
    for (const auto &line : lines) {
        const double r0 = nowSeconds();
        std::string reply;
        if (!sendLine(fd, line) ||
            reader.readLine(&reply, 600000) !=
                LineReader::Status::Line) {
            ++out.failures;
            continue;
        }
        const double lat = nowSeconds() - r0;
        const auto doc = parseJson(reply);
        if (!doc || !doc->getBool("ok", false)) {
            ++out.failures;
            continue;
        }
        out.latencies_s.push_back(lat);
        out.sum_samples_to_incumbent += static_cast<double>(
            doc->getInt("samples_to_incumbent", 0));
        out.sum_score += doc->getDouble("score", 0.0);
        if (doc->getString("store", "") == "exact")
            ++out.exact_hits;
    }
    out.wall_seconds = nowSeconds() - t0;
    closeSocket(fd);
    std::sort(out.latencies_s.begin(), out.latencies_s.end());
    return out;
}

JsonValue
passJson(const PassResult &r)
{
    JsonValue j = JsonValue::object();
    const size_t n = r.latencies_s.size();
    j["requests_ok"] = static_cast<uint64_t>(n);
    j["failures"] = static_cast<uint64_t>(r.failures);
    j["qps"] = r.qps();
    j["p50_ms"] = r.percentile(0.50) * 1e3;
    j["p95_ms"] = r.percentile(0.95) * 1e3;
    j["p99_ms"] = r.percentile(0.99) * 1e3;
    j["store_exact_hits"] = static_cast<uint64_t>(r.exact_hits);
    j["mean_samples_to_incumbent"] =
        n ? r.sum_samples_to_incumbent / static_cast<double>(n) : 0.0;
    j["mean_score"] =
        n ? r.sum_score / static_cast<double>(n) : 0.0;
    return j;
}

// ------------------------------------------------- concurrency sweep

/** One cell of the front-end sweep. */
struct SweepCell
{
    size_t conns = 0;
    size_t pipeline = 0;
    size_t requests = 0;
    size_t failures = 0;
    double wall_seconds = 0.0;

    double qps() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(requests) / wall_seconds
            : 0.0;
    }
};

/**
 * Ping `conns` concurrent connections, `pipeline` requests per batch,
 * `batches` batches per connection, against a fresh server. Client
 * side: min(8, conns) threads, each owning an equal slice of the
 * connections and playing batched send-P-then-read-P rounds over
 * every owned connection.
 */
SweepCell
runSweepCell(size_t conns, size_t pipeline, size_t batches)
{
    SweepCell cell;
    cell.conns = conns;
    cell.pipeline = pipeline;

    ServiceConfig scfg;
    MseService service(scfg);
    ServerConfig ncfg;
    ncfg.max_connections = conns + 8;
    ServiceServer server(service, ncfg);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "sweep server start failed: %s\n",
                     err.c_str());
        cell.failures = conns * pipeline * batches;
        return cell;
    }

    JsonValue ping = JsonValue::object();
    ping["type"] = "ping";
    std::string payload;
    for (size_t i = 0; i < pipeline; ++i) {
        payload += ping.dump();
        payload += '\n';
    }

    const size_t n_threads = std::min<size_t>(8, conns);
    std::vector<std::vector<int>> owned(n_threads);
    std::atomic<size_t> failures{0};
    size_t connected = 0;
    for (size_t i = 0; i < conns; ++i) {
        const int fd = connectTcp("127.0.0.1", server.port(), &err);
        if (fd < 0) {
            failures += pipeline * batches;
            continue;
        }
        owned[i % n_threads].push_back(fd);
        ++connected;
    }

    const double t0 = nowSeconds();
    std::vector<std::thread> clients;
    clients.reserve(n_threads);
    for (size_t t = 0; t < n_threads; ++t) {
        clients.emplace_back([&, t] {
            std::vector<std::unique_ptr<LineReader>> readers;
            readers.reserve(owned[t].size());
            for (const int fd : owned[t])
                readers.push_back(std::make_unique<LineReader>(fd));
            for (size_t b = 0; b < batches; ++b) {
                // All owned connections keep `pipeline` requests in
                // flight at once: write every batch, then read every
                // batch, so the server sees the full concurrency.
                for (const int fd : owned[t])
                    if (!sendAll(fd, payload.data(), payload.size()))
                        failures += pipeline;
                for (size_t c = 0; c < owned[t].size(); ++c) {
                    for (size_t k = 0; k < pipeline; ++k) {
                        std::string reply;
                        if (readers[c]->readLine(&reply, 60000) !=
                            LineReader::Status::Line)
                            ++failures;
                    }
                }
            }
        });
    }
    for (auto &c : clients)
        c.join();
    cell.wall_seconds = nowSeconds() - t0;
    for (auto &fds : owned)
        for (const int fd : fds)
            closeSocket(fd);
    server.stop();

    const size_t attempted = connected * pipeline * batches;
    const size_t failed = failures.load();
    cell.requests = attempted > failed ? attempted - failed : 0;
    cell.failures = failed + (conns - connected) * pipeline * batches;
    return cell;
}

JsonValue
sweepCellJson(const SweepCell &c)
{
    JsonValue j = JsonValue::object();
    j["connections"] = static_cast<uint64_t>(c.conns);
    j["pipeline"] = static_cast<uint64_t>(c.pipeline);
    j["requests"] = static_cast<uint64_t>(c.requests);
    j["failures"] = static_cast<uint64_t>(c.failures);
    j["qps"] = c.qps();
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        (argc > 1 && std::strcmp(argv[1], "smoke") == 0) ||
        bench::envSize("MSE_BENCH_SMOKE", 0) != 0;
    bench::banner("Mapping-search service throughput",
                  "cold vs store-warmed request streams over the "
                  "line-JSON TCP front end");

    const size_t samples =
        bench::envSize("MSE_BENCH_SAMPLES", smoke ? 300 : 1500);
    const size_t repeats =
        bench::envSize("MSE_BENCH_REPEATS", smoke ? 1 : 2);

    // Distinct layers = distinct store keys: a BERT-ish GEMM mix plus
    // two CONV layers so both workload shapes hit the wire codec.
    std::vector<Workload> stream = {
        makeGemm("g0", 16, 512, 512, 256),
        makeGemm("g1", 16, 256, 1024, 256),
        makeGemm("g2", 16, 1024, 256, 512),
        makeConv2d("c0", 8, 64, 64, 28, 28, 3, 3),
    };
    if (!smoke) {
        stream.push_back(makeGemm("g3", 16, 512, 256, 1024));
        stream.push_back(makeGemm("g4", 32, 512, 512, 512));
        stream.push_back(makeConv2d("c1", 8, 128, 128, 14, 14, 3, 3));
        stream.push_back(makeConv2d("c2", 8, 256, 64, 14, 14, 1, 1));
    }
    std::vector<std::string> lines;
    for (size_t rep = 0; rep < repeats; ++rep)
        for (const auto &wl : stream)
            lines.push_back(searchRequestLine(wl, samples));

    ServiceConfig svc_cfg; // in-memory store
    MseService service(svc_cfg);
    ServiceServer server(service);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "server start failed: %s\n", err.c_str());
        return 1;
    }

    std::printf("stream: %zu requests (%zu layers x %zu), %zu "
                "samples each, port %u\n\n",
                lines.size(), stream.size(), repeats, samples,
                server.port());

    const PassResult cold = runPass(server.port(), lines);
    const PassResult warm = runPass(server.port(), lines);

    const auto show = [](const char *name, const PassResult &r) {
        std::printf("%-5s qps %7.2f   p50 %8.2f ms   p95 %8.2f ms   "
                    "p99 %8.2f ms   exact-hits %zu/%zu   "
                    "samples-to-incumbent %8.1f\n",
                    name, r.qps(), r.percentile(0.5) * 1e3,
                    r.percentile(0.95) * 1e3, r.percentile(0.99) * 1e3,
                    r.exact_hits, r.latencies_s.size(),
                    r.latencies_s.empty()
                        ? 0.0
                        : r.sum_samples_to_incumbent /
                            static_cast<double>(r.latencies_s.size()));
    };
    show("cold", cold);
    show("warm", warm);

    const double cold_sti = cold.latencies_s.empty()
        ? 0.0
        : cold.sum_samples_to_incumbent /
            static_cast<double>(cold.latencies_s.size());
    const double warm_sti = warm.latencies_s.empty()
        ? 0.0
        : warm.sum_samples_to_incumbent /
            static_cast<double>(warm.latencies_s.size());
    std::printf("\nwarm-start win: samples-to-incumbent %.1f -> %.1f "
                "(%.1fx fewer)\n",
                cold_sti, warm_sti,
                warm_sti > 0.0 ? cold_sti / warm_sti : 0.0);

    // Grab the service's own metrics for the record.
    JsonValue stats; // null until the stats request succeeds
    {
        const int fd = connectTcp("127.0.0.1", server.port(), &err);
        if (fd >= 0) {
            JsonValue req = JsonValue::object();
            req["type"] = "stats";
            std::string reply;
            LineReader reader(fd);
            if (sendLine(fd, req.dump()) &&
                reader.readLine(&reply, 60000) ==
                    LineReader::Status::Line) {
                if (auto doc = parseJson(reply))
                    if (const JsonValue *s = doc->find("stats"))
                        stats = *s;
            }
            closeSocket(fd);
        }
    }
    server.stop();

    // Front-end sweep: cheap pings isolate connection handling,
    // framing, and dispatch from search cost.
    std::printf("\nfront-end sweep (ping, batched):\n");
    const size_t batches =
        bench::envSize("MSE_BENCH_SWEEP_BATCHES", smoke ? 3 : 20);
    std::vector<size_t> conn_counts = {1, 32, 256};
    if (!smoke)
        conn_counts.push_back(1024);
    const std::vector<size_t> pipelines = {1, 16};
    std::vector<SweepCell> cells;
    double qps_256x16 = 0.0;
    for (const size_t conns : conn_counts) {
        for (const size_t p : pipelines) {
            const SweepCell cell = runSweepCell(conns, p, batches);
            std::printf("  conns %4zu  pipeline %2zu  qps %9.0f  "
                        "failures %zu\n",
                        cell.conns, cell.pipeline, cell.qps(),
                        cell.failures);
            if (conns == 256 && p == 16)
                qps_256x16 = cell.qps();
            cells.push_back(cell);
        }
    }
    if (smoke)
        std::printf("  (smoke mode: 1024-connection cells skipped)\n");

    JsonValue doc = JsonValue::object();
    doc["samples_per_request"] = static_cast<uint64_t>(samples);
    doc["layers"] = static_cast<uint64_t>(stream.size());
    doc["repeats"] = static_cast<uint64_t>(repeats);
    doc["requests_per_pass"] = static_cast<uint64_t>(lines.size());
    JsonValue &passes = doc["passes"];
    passes["cold"] = passJson(cold);
    passes["warm"] = passJson(warm);
    JsonValue &win = doc["warm_vs_cold"];
    win["mean_samples_to_incumbent_cold"] = cold_sti;
    win["mean_samples_to_incumbent_warm"] = warm_sti;
    win["samples_to_incumbent_speedup"] =
        warm_sti > 0.0 ? cold_sti / warm_sti : 0.0;
    win["qps_ratio"] =
        cold.qps() > 0.0 ? warm.qps() / cold.qps() : 0.0;
    doc["service_stats"] = stats;
    JsonValue &sweep = doc["frontend_sweep"];
    sweep["batches_per_connection"] = static_cast<uint64_t>(batches);
    JsonValue &cells_json = sweep["cells"];
    cells_json = JsonValue::array();
    size_t sweep_failures = 0;
    for (const SweepCell &c : cells) {
        cells_json.push(sweepCellJson(c));
        sweep_failures += c.failures;
    }
    sweep["event_qps_at_256x16"] = qps_256x16;
    bench::writeBenchJson("BENCH_service_throughput.json", doc);

    // A store that degraded mid-bench (or a run with faults armed)
    // invalidates the warm-pass numbers — fail loudly, don't publish.
    bool tainted = false;
    if (const JsonValue *st = stats.find("store"))
        tainted = st->getBool("degraded", false);
    tainted = tainted || stats.find("faults") != nullptr;

    const bool ok = cold.failures == 0 && warm.failures == 0 &&
        warm.exact_hits == warm.latencies_s.size() &&
        !warm.latencies_s.empty() && warm_sti <= cold_sti &&
        sweep_failures == 0 && !tainted;
    if (sweep_failures != 0)
        std::fprintf(stderr, "FAIL: %zu front-end sweep failures\n",
                     sweep_failures);
    if (tainted)
        std::fprintf(stderr, "FAIL: store degraded or faults armed "
                             "during the bench\n");
    else if (!ok)
        std::fprintf(stderr, "FAIL: warm pass did not beat cold\n");
    return ok ? 0 : 1;
}
