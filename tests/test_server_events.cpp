/**
 * @file
 * Event-loop server certification: request pipelining and reply
 * ordering, slow-reader backpressure, connection churn, mid-pipeline
 * disconnects, steady-clock idle deadlines, a golden reply transcript,
 * executor-pool determinism, the poll(2) fallback backend,
 * and fault injection at the event loop's sys_io sites.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/math_util.hpp"
#include "common/json.hpp"
#include "service/mapping_store.hpp"
#include "service/net.hpp"
#include "service/poller.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "test_helpers.hpp"
#include "service/error_codes.hpp"

namespace mse {
namespace {

int64_t
nowMs()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               clock::now().time_since_epoch())
        .count();
}

/** Configures the global fault injector for one test, then clears. */
class GlobalFaultGuard
{
  public:
    explicit GlobalFaultGuard(const std::string &config)
    {
        std::string err;
        ok_ = FaultInjector::global().configure(config, &err);
        EXPECT_TRUE(ok_) << err;
    }
    ~GlobalFaultGuard() { FaultInjector::global().clear(); }
    bool ok() const { return ok_; }

  private:
    bool ok_ = false;
};

/** One search request line against an inline (non-registry) arch.
 *  `extra` is appended inside the object: ",\"max_samples\":40". */
std::string
searchLine(const std::string &extra = "")
{
    return std::string(
               "{\"type\":\"search\",\"workload\":{\"gemm\":"
               "{\"b\":1,\"m\":8,\"k\":8,\"n\":8}},"
               "\"arch\":{\"npu\":{\"l2_bytes\":8192,"
               "\"l1_bytes\":128,\"num_pes\":4,"
               "\"alus_per_pe\":2}}") +
        extra + "}";
}

/** Live loopback server; per-test knobs via the two configs. */
class EventServerTest : public ::testing::Test
{
  protected:
    void startServer(ServerConfig ncfg = {}, ServiceConfig scfg = {})
    {
        if (scfg.default_samples == ServiceConfig().default_samples)
            scfg.default_samples = 120;
        service_ = std::make_unique<MseService>(scfg);
        server_ = std::make_unique<ServiceServer>(*service_, ncfg);
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
    }

    void TearDown() override
    {
        if (server_)
            server_->stop();
    }

    int connect()
    {
        std::string err;
        const int fd = connectTcp("127.0.0.1", server_->port(), &err);
        EXPECT_GE(fd, 0) << err;
        return fd;
    }

    /** Read `n` reply lines, parsed; fails the test on a short read. */
    std::vector<JsonValue> readReplies(LineReader &r, size_t n,
                                       int timeout_ms = 120000)
    {
        std::vector<JsonValue> out;
        for (size_t i = 0; i < n; ++i) {
            std::string line;
            const auto st = r.readLine(&line, timeout_ms);
            EXPECT_EQ(st, LineReader::Status::Line)
                << "reply " << i << " of " << n;
            if (st != LineReader::Status::Line)
                break;
            const auto doc = parseJson(line);
            EXPECT_TRUE(doc.has_value()) << line;
            out.push_back(doc ? *doc : JsonValue());
        }
        return out;
    }

    std::unique_ptr<MseService> service_;
    std::unique_ptr<ServiceServer> server_;
};

// ------------------------------------------------------------ pipelining

TEST_F(EventServerTest, PipelinedRepliesArriveInRequestOrder)
{
    startServer();
    const int fd = connect();
    LineReader reader(fd);

    // Mixed burst, sent before reading anything. Each search carries a
    // distinct max_samples so its reply is identifiable: replies must
    // come back in request order even though some finish instantly
    // (ping/stats) while searches run on an executor.
    const std::string burst = searchLine(",\"max_samples\":40") + "\n" +
        "{\"type\":\"ping\"}\n" + searchLine(",\"max_samples\":80") +
        "\n" + "{\"type\":\"stats\"}\n" +
        searchLine(",\"max_samples\":120") + "\n" +
        "{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));

    const auto replies = readReplies(reader, 6);
    ASSERT_EQ(replies.size(), 6u);
    EXPECT_EQ(replies[0].getInt("samples", -1), 40);
    EXPECT_EQ(replies[1].getString("type", ""), "ping");
    EXPECT_EQ(replies[2].getInt("samples", -1), 80);
    EXPECT_NE(replies[3].find("stats"), nullptr);
    EXPECT_EQ(replies[4].getInt("samples", -1), 120);
    EXPECT_EQ(replies[5].getString("type", ""), "ping");
    for (const auto &r : replies)
        EXPECT_TRUE(r.getBool("ok", false));
    closeSocket(fd);
}

TEST_F(EventServerTest, PipelinedPingFloodCompletesInOrder)
{
    // 100 pings in one burst crosses the default max_pipeline (64), so
    // this also exercises the pause -> flush -> resume framing path.
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string burst;
    for (int i = 0; i < 100; ++i)
        burst += "{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    const auto replies = readReplies(reader, 100);
    ASSERT_EQ(replies.size(), 100u);
    for (const auto &r : replies) {
        EXPECT_TRUE(r.getBool("ok", false));
        EXPECT_EQ(r.getString("type", ""), "ping");
    }
    closeSocket(fd);
}

TEST_F(EventServerTest, PipelineCapPausesAndResumesSearchStream)
{
    ServerConfig ncfg;
    ncfg.max_pipeline = 2; // tiny in-flight cap
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    std::string burst;
    for (int i = 0; i < 5; ++i)
        burst += searchLine(",\"max_samples\":" +
                            std::to_string(20 + 10 * i)) +
            "\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    const auto replies = readReplies(reader, 5);
    ASSERT_EQ(replies.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(replies[i].getBool("ok", false));
        EXPECT_EQ(replies[i].getInt("samples", -1), 20 + 10 * i);
    }
    closeSocket(fd);
}

// ---------------------------------------------------------- backpressure

TEST_F(EventServerTest, SlowReaderDoesNotBlockOtherConnections)
{
    ServerConfig ncfg;
    ncfg.max_buffered_bytes = 2048; // pause reads quickly
    startServer(ncfg);

    // The slow connection floods stats requests and reads nothing:
    // replies pile up in the kernel socket buffer and then in the
    // server's out buffer until backpressure pauses that connection.
    const int slow = connect();
    std::string burst;
    const int kStats = 400;
    for (int i = 0; i < kStats; ++i)
        burst += "{\"type\":\"stats\"}\n";
    ASSERT_TRUE(sendAll(slow, burst.data(), burst.size()));

    // Meanwhile a well-behaved connection stays responsive: the event
    // loop never blocks on the stalled peer.
    const int fast = connect();
    LineReader fast_reader(fast);
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(sendLine(fast, "{\"type\":\"ping\"}"));
        std::string line;
        ASSERT_EQ(fast_reader.readLine(&line, 20000),
                  LineReader::Status::Line)
            << "loop stalled behind the slow reader";
    }
    closeSocket(fast);

    // The slow reader finally drains: every reply arrives, in order,
    // none lost to the pause/resume cycles.
    LineReader slow_reader(slow);
    const auto replies = readReplies(slow_reader, kStats);
    ASSERT_EQ(replies.size(), static_cast<size_t>(kStats));
    for (const auto &r : replies) {
        EXPECT_TRUE(r.getBool("ok", false));
        EXPECT_NE(r.find("stats"), nullptr);
    }
    closeSocket(slow);
}

// ----------------------------------------------------------- disconnect

TEST_F(EventServerTest, MidPipelineDisconnectCancelsOnlyThatConnection)
{
    startServer();
    // Connection A pipelines two huge searches; the first occupies the
    // (single) executor, the second waits in the service queue.
    const int a = connect();
    const std::string burst =
        searchLine(",\"max_samples\":50000000") + "\n" +
        searchLine(",\"max_samples\":50000000,\"seed\":2") + "\n";
    ASSERT_TRUE(sendAll(a, burst.data(), burst.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Connection B queues a small search behind them.
    const int b = connect();
    LineReader reader_b(b);
    ASSERT_TRUE(sendLine(b, searchLine(",\"max_samples\":100")));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // A vanishes: both of its searches must be cancelled (the running
    // one stops at the next generation boundary, freeing the
    // executor), and B's search must still complete normally.
    closeSocket(a);
    std::string line;
    ASSERT_EQ(reader_b.readLine(&line, 60000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_TRUE(doc->getBool("ok", false)) << line;
    EXPECT_EQ(doc->getInt("samples", -1), 100);
    closeSocket(b);

    // And the server keeps serving new connections.
    const int c = connect();
    LineReader reader_c(c);
    ASSERT_TRUE(sendLine(c, "{\"type\":\"ping\"}"));
    ASSERT_EQ(reader_c.readLine(&line, 20000), LineReader::Status::Line);
    closeSocket(c);
}

// -------------------------------------------------------- idle deadlines

TEST_F(EventServerTest, IdleTimeoutFiresNearConfiguredDeadline)
{
    ServerConfig ncfg;
    ncfg.io_timeout_ms = 400;
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    const int64_t t0 = nowMs();
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 30000), LineReader::Status::Line);
    const int64_t elapsed = nowMs() - t0;
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->find("error")->getString("code", ""), wire_errors::kIdleTimeout);
    // Absolute steady-clock deadlines: never early (strict bound),
    // and not late by more than scheduling noise (generous bound —
    // the old implementation's coarse poll-tick accounting could
    // overshoot by whole multiples of the timeout).
    EXPECT_GE(elapsed, 350) << "timeout fired early";
    EXPECT_LE(elapsed, 2900) << "timeout fired far too late";
    const auto st = reader.readLine(&line, 30000);
    EXPECT_TRUE(st == LineReader::Status::Closed ||
                st == LineReader::Status::Error);
    closeSocket(fd);
}

TEST_F(EventServerTest, ActivityResetsIdleDeadline)
{
    ServerConfig ncfg;
    ncfg.io_timeout_ms = 600;
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    std::string line;
    // Two pings 400 ms apart: each one pushes the 600 ms deadline
    // out, so the connection survives well past one timeout span.
    for (int i = 0; i < 2; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        ASSERT_TRUE(sendLine(fd, "{\"type\":\"ping\"}"));
        ASSERT_EQ(reader.readLine(&line, 20000),
                  LineReader::Status::Line)
            << "connection died despite activity";
    }
    // Silence now: the timeout fires relative to the *last* activity.
    const int64_t t0 = nowMs();
    ASSERT_EQ(reader.readLine(&line, 30000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("error")->getString("code", ""), wire_errors::kIdleTimeout);
    EXPECT_GE(nowMs() - t0, 550);
    closeSocket(fd);
}

TEST_F(EventServerTest, InFlightSearchExemptsConnectionFromIdle)
{
    ServerConfig ncfg;
    ncfg.io_timeout_ms = 300;
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    // A search that outlives the idle timeout via its own deadline:
    // the connection is waiting on the server, not idling, so it must
    // get the search reply, never an idle_timeout.
    ASSERT_TRUE(sendLine(
        fd,
        searchLine(",\"max_samples\":50000000,\"deadline_ms\":1200")));
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_TRUE(doc->getBool("ok", false)) << line;
    EXPECT_TRUE(doc->getBool("timed_out", false));
    closeSocket(fd);
}

// ------------------------------------------------------- hostile framing

TEST_F(EventServerTest, OversizedIncompleteLineRejectedAndClosed)
{
    ServerConfig ncfg;
    ncfg.max_line_bytes = 1024;
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    // 2 KiB with no newline: the line can never complete within the
    // cap, so the server must reject it without waiting for one.
    const std::string junk(2048, 'x');
    ASSERT_TRUE(sendAll(fd, junk.data(), junk.size()));
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 20000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("error")->getString("code", ""),
              wire_errors::kRequestTooLarge);
    const auto st = reader.readLine(&line, 20000);
    EXPECT_TRUE(st == LineReader::Status::Closed ||
                st == LineReader::Status::Error);
    closeSocket(fd);
}

TEST_F(EventServerTest, EmptyLinesAreIgnored)
{
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    const std::string burst = "\n\n\n{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 20000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->getString("type", ""), "ping");
    closeSocket(fd);
}

TEST_F(EventServerTest, DensityOfUnknownTensorAnsweredThenServesNext)
{
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    const std::string burst =
        searchLine(",\"densities\":{\"B\":0.3}") + "\n" +
        searchLine(",\"max_samples\":40,\"seed\":3") + "\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    const auto replies = readReplies(reader, 2);
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_FALSE(replies[0].getBool("ok", true));
    const JsonValue *err = replies[0].find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->getString("code", ""), wire_errors::kBadRequest);
    EXPECT_NE(err->getString("message", "").find("'B'"),
              std::string::npos);
    EXPECT_TRUE(replies[1].getBool("ok", false)) << replies[1].dump();
    closeSocket(fd);
}

TEST_F(EventServerTest, MaxConnectionsRefusedWithRetryHint)
{
    ServerConfig ncfg;
    ncfg.max_connections = 2;
    startServer(ncfg);
    const int c1 = connect();
    const int c2 = connect();
    LineReader r1(c1), r2(c2);
    std::string line;
    // Round-trip both so they are registered before the third arrives.
    ASSERT_TRUE(sendLine(c1, "{\"type\":\"ping\"}"));
    ASSERT_EQ(r1.readLine(&line, 20000), LineReader::Status::Line);
    ASSERT_TRUE(sendLine(c2, "{\"type\":\"ping\"}"));
    ASSERT_EQ(r2.readLine(&line, 20000), LineReader::Status::Line);

    const int c3 = connect();
    LineReader r3(c3);
    ASSERT_EQ(r3.readLine(&line, 20000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->find("error")->getString("code", ""),
              wire_errors::kTooManyConnections);
    EXPECT_GT(doc->find("error")->getInt("retry_after_ms", 0), 0);
    const auto st = r3.readLine(&line, 20000);
    EXPECT_TRUE(st == LineReader::Status::Closed ||
                st == LineReader::Status::Error);
    closeSocket(c3);

    // Freeing a slot re-opens the door.
    closeSocket(c1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const int c4 = connect();
    LineReader r4(c4);
    ASSERT_TRUE(sendLine(c4, "{\"type\":\"ping\"}"));
    EXPECT_EQ(r4.readLine(&line, 20000), LineReader::Status::Line);
    closeSocket(c4);
    closeSocket(c2);
}

// ------------------------------------------------------------------ soak

TEST_F(EventServerTest, ConnectionChurnSoakWhileSearchRuns)
{
    ServerConfig ncfg;
    ncfg.max_connections = 64;
    startServer(ncfg);

    // A long search holds an executor for the whole soak.
    const int busy = connect();
    LineReader busy_reader(busy);
    ASSERT_TRUE(sendLine(
        busy,
        searchLine(",\"max_samples\":50000000,\"deadline_ms\":8000")));

    // Waves of short-lived connections churn the fd space: accept,
    // one round trip, close. Ids (not fds) key the completion path,
    // so heavy fd reuse must not misroute replies.
    const int kWaves = 8, kPerWave = 15;
    int pings_ok = 0;
    for (int w = 0; w < kWaves; ++w) {
        std::vector<int> fds;
        for (int i = 0; i < kPerWave; ++i)
            fds.push_back(connect());
        for (const int fd : fds) {
            LineReader r(fd);
            std::string line;
            ASSERT_TRUE(sendLine(fd, "{\"type\":\"ping\"}"));
            ASSERT_EQ(r.readLine(&line, 30000),
                      LineReader::Status::Line);
            ++pings_ok;
            closeSocket(fd);
        }
    }
    EXPECT_EQ(pings_ok, kWaves * kPerWave);

    // The long search still completes and its reply routes home.
    std::string line;
    ASSERT_EQ(busy_reader.readLine(&line, 60000),
              LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_TRUE(doc->getBool("ok", false)) << line;
    closeSocket(busy);

    const JsonValue stats = service_->statsJson();
    EXPECT_GE(stats.find("requests")->getInt("ping", 0),
              kWaves * kPerWave);
}

// ----------------------------------------------- golden reply transcript

/** Zero the wall-clock field so replies compare byte-for-byte. */
std::string
maskWallMs(std::string s)
{
    const std::string key = "\"wall_ms\":";
    const size_t at = s.find(key);
    if (at == std::string::npos)
        return s;
    size_t end = at + key.size();
    while (end < s.size() && s[end] != ',' && s[end] != '}')
        ++end;
    return s.substr(0, at + key.size()) + "0" + s.substr(end);
}

/** A replicated store record: tinyGemm all-at-top on miniNpu. */
StoreEntry
transcriptEntry()
{
    StoreEntry e;
    e.workload = test::tinyGemm();
    e.arch_sig = fnv1a64Hex(test::miniNpu().signature());
    e.objective = Objective::Edp;
    e.mapping = test::allAtTop(e.workload, test::miniNpu());
    e.score = 42.0;
    e.energy_uj = 1.0;
    e.latency_cycles = 10.0;
    e.samples = 7;
    return e;
}

/**
 * One hostile-and-friendly pipelined stream covering every request
 * kind but stats, whose uptime and latency figures vary from run to
 * run. The cluster ops come before the searches: they are answered
 * on the event loop as they are framed, so placing them first keeps
 * the sync reply independent of when the searches write the store.
 * The oversized line is last, because it costs the session; it is 2x
 * the 2048-byte cap.
 */
std::string
transcriptStream()
{
    JsonValue replicate = JsonValue::object();
    replicate["type"] = "replicate";
    replicate["from"] = "127.0.0.1:1";
    replicate["entries"] = JsonValue::array();
    replicate["entries"].push(
        MappingStore::encodeEntryJson(transcriptEntry()));
    JsonValue bad = MappingStore::encodeEntryJson(transcriptEntry());
    bad["v"] = 2; // unknown record version: counted, not merged
    replicate["entries"].push(bad);

    // The caller is losing on the replicated key and names one key
    // this daemon does not hold: exactly one record comes back.
    JsonValue sync = JsonValue::object();
    sync["type"] = "sync";
    sync["from"] = "127.0.0.1:1";
    sync["digest"] = JsonValue::object();
    sync["digest"][MappingStore::keyOfEntry(transcriptEntry())] = 1e9;
    sync["digest"]["no-such-key"] = 1.0;

    const std::string search =
        searchLine(",\"max_samples\":90,\"seed\":5,"
                   "\"warm_start\":false");
    return "{\"type\":\"ping\"}\n" +                       //
        std::string("{oops\n") +                               //
        "{\"type\":\"bogus\"}\n" +                           //
        "\n" +                                                 //
        searchLine(",\"densities\":{\"Nope\":0.5}") + "\n" + //
        "{\"type\":\"probe\",\"from\":\"127.0.0.1:1\"}\n" + //
        replicate.dump() + "\n" +                              //
        sync.dump() + "\n" +                                   //
        search + "\n" + search + "\n" +                        //
        std::string(4096, 'x') + "\n";
}

/** Replies to transcriptStream(), in order, wall_ms masked. */
std::vector<std::string>
transcriptReplies()
{
    ServiceConfig scfg;
    scfg.default_samples = 120;
    MseService service(scfg);
    ServerConfig ncfg;
    ncfg.max_line_bytes = 2048;
    ServiceServer server(service, ncfg);
    std::string err;
    EXPECT_TRUE(server.start(&err)) << err;

    std::string serr;
    const int fd = connectTcp("127.0.0.1", server.port(), &serr);
    EXPECT_GE(fd, 0) << serr;
    const std::string stream = transcriptStream();
    EXPECT_TRUE(sendAll(fd, stream.data(), stream.size()));

    // The server closes the session after the oversized line's reply,
    // so reading to EOF collects the whole transcript.
    std::vector<std::string> replies;
    LineReader reader(fd);
    std::string line;
    while (reader.readLine(&line, 120000) == LineReader::Status::Line)
        replies.push_back(maskWallMs(line));
    closeSocket(fd);
    server.stop();
    return replies;
}

std::string
transcriptPath()
{
    return std::string(MSE_TEST_DATA_DIR) + "/server_transcript.txt";
}

/** The transcript's reply lines ('#' lines are comments). */
std::vector<std::string>
loadTranscript()
{
    std::ifstream in(transcriptPath());
    EXPECT_TRUE(in.good()) << "cannot open " << transcriptPath();
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    return lines;
}

// The pinned oracle for the front end: every request kind but stats,
// the error paths, pipelined ordering and the oversized-line hang-up, byte for
// byte. The seeded searches are deterministic at any MSE_THREADS.
TEST(ServerTranscript, PipelinedRepliesMatchGolden)
{
    const auto replies = transcriptReplies();
    if (std::getenv("MSE_REGEN_GOLDEN")) {
        std::ofstream out(transcriptPath());
        out << "# mse_serve's replies to transcriptStream() in "
               "tests/test_server_events.cpp,\n"
               "# one line each, wall_ms masked. Regenerate with:\n"
               "#   MSE_REGEN_GOLDEN=1 ./build/tests/test_server_events "
               "--gtest_filter='ServerTranscript.*'\n";
        for (const auto &r : replies)
            out << r << "\n";
        GTEST_SKIP() << "transcript regenerated at " << transcriptPath();
    }
    const auto golden = loadTranscript();
    ASSERT_EQ(replies.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i)
        EXPECT_EQ(replies[i], golden[i]) << "reply " << i;
}

// ------------------------------------------------------- executor pool

TEST(ExecutorPool, ResultsBitIdenticalAcrossPoolSizes)
{
    // The per-request determinism contract: any executor count, same
    // request, same bits. Distinct workloads + warm_start=false keep
    // the requests independent of store mutation order.
    auto makeReq = [](int m) {
        SearchRequest req;
        req.workload = makeGemm("pool_gemm_" + std::to_string(m), 4, m,
                                64, 64);
        req.arch = test::miniNpu();
        req.max_samples = 300;
        req.seed = 77;
        req.seed_set = true;
        req.warm_start = false;
        return req;
    };
    auto runAll = [&](size_t executors) {
        ServiceConfig cfg;
        cfg.executors = executors;
        MseService service(cfg);
        std::vector<MseService::Ticket> tickets;
        for (int m : {32, 48, 64, 80})
            tickets.push_back(service.submit(makeReq(m)));
        std::vector<SearchReply> replies;
        for (auto &t : tickets)
            replies.push_back(t.reply.get());
        return replies;
    };
    const auto one = runAll(1);
    const auto four = runAll(4);
    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok) << one[i].error_message;
        ASSERT_TRUE(four[i].ok) << four[i].error_message;
        EXPECT_EQ(one[i].score, four[i].score) << i;
        EXPECT_EQ(one[i].mapping, four[i].mapping) << i;
        EXPECT_EQ(one[i].samples, four[i].samples) << i;
        EXPECT_EQ(one[i].energy_uj, four[i].energy_uj) << i;
        EXPECT_EQ(one[i].latency_cycles, four[i].latency_cycles) << i;
    }
}

TEST(ExecutorPool, TwoExecutorsBothDequeue)
{
    // queue_capacity=1 with two executors: two long searches are both
    // dequeued (one per worker), a third waits in the queue, a fourth
    // is shed. A single executor would shed the *third* instead.
    ServiceConfig cfg;
    cfg.executors = 2;
    cfg.queue_capacity = 1;
    // The long searches must only ever end on cancel: if they hit the
    // service's default request deadline instead, an executor frees
    // up, d gets *queued* rather than shed, and then d itself expires
    // as deadline_exceeded (observed on slow boxes with the 300s
    // default).
    cfg.default_deadline_seconds = 24.0 * 3600.0;
    MseService service(cfg);
    auto longReq = [] {
        SearchRequest req;
        req.workload = makeGemm("pool_long", 8, 64, 64, 64);
        req.arch = test::miniNpu();
        req.max_samples = 50000000;
        return req;
    };
    // With a one-slot queue even the first two submits can race the
    // executors (b is shed if a has not been popped yet): retry until
    // accepted. An accepted ticket's future is not immediately ready.
    auto submitAccepted = [&] {
        for (int tries = 0; tries < 2000; ++tries) {
            auto t = service.submit(longReq());
            if (t.reply.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                return t;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return MseService::Ticket{}; // .reply invalid => assert below
    };
    auto a = submitAccepted();
    auto b = submitAccepted();
    // Whatever the asserts below decide, the near-infinite searches
    // must be released: ~MseService drains running work, so a leaked
    // ticket would hang the test binary for the full deadline.
    struct Release
    {
        std::vector<CancelTokenPtr> toks;
        ~Release()
        {
            for (auto &t : toks)
                if (t)
                    t->requestCancel();
        }
    } release;
    release.toks = {a.cancel, b.cancel};
    ASSERT_TRUE(a.reply.valid() && b.reply.valid())
        << "long submits never got accepted";
    // Wait until both workers actually hold a search (stats exposes a
    // live queue snapshot). A fixed sleep here flakes on slow loaded
    // boxes, and probing with throwaway submits races the executors.
    bool both_running = false;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < give_up) {
        const JsonValue stats = service.statsJson();
        const JsonValue *q = stats.find("queue");
        ASSERT_NE(q, nullptr);
        if (q->getInt("running", 0) == 2 && q->getInt("depth", 0) == 0) {
            both_running = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(both_running)
        << "executors never dequeued both long searches";
    auto c = service.submit(longReq()); // fills the queue
    release.toks.push_back(c.cancel);
    auto d = service.submit(longReq()); // shed
    release.toks.push_back(d.cancel);
    const SearchReply rd = d.reply.get();
    EXPECT_FALSE(rd.ok);
    EXPECT_EQ(rd.error_code, wire_errors::kQueueFull);
    a.cancel->requestCancel();
    b.cancel->requestCancel();
    c.cancel->requestCancel();
    a.reply.wait();
    b.reply.wait();
    const SearchReply rc = c.reply.get();
    EXPECT_NE(rc.error_code, wire_errors::kQueueFull);
}

TEST(ExecutorPool, StatsReportExecutorCount)
{
    ServiceConfig cfg;
    cfg.executors = 3;
    MseService service(cfg);
    EXPECT_EQ(service.executors(), 3u);
    EXPECT_EQ(service.statsJson().find("config")->getInt("executors", 0),
              3);
}

TEST(ExecutorPool, DefaultExecutorsHonorsEnvAndClamps)
{
    // A parsed MSE_EXECUTORS wins over the hardware count and clamps
    // to [1, 64].
    EXPECT_EQ(MseService::defaultExecutors("7", 4), 7u);
    EXPECT_EQ(MseService::defaultExecutors("0", 4), 1u);    // up
    EXPECT_EQ(MseService::defaultExecutors("-3", 4), 1u);   // up
    EXPECT_EQ(MseService::defaultExecutors("9999", 4), 64u); // down
    // Unset or unparseable: the hardware count, clamped the same way
    // (0 = the runtime could not tell).
    for (const char *env : {static_cast<const char *>(nullptr), "", "x"}) {
        EXPECT_EQ(MseService::defaultExecutors(env, 0), 1u);
        EXPECT_EQ(MseService::defaultExecutors(env, 4), 4u);
        EXPECT_EQ(MseService::defaultExecutors(env, 200), 64u);
    }

    // The env-reading overload goes through the same function.
    const char *old = std::getenv("MSE_EXECUTORS");
    const std::string saved = old ? old : "";
    setenv("MSE_EXECUTORS", "0", 1);
    EXPECT_EQ(MseService::defaultExecutors(), 1u);
    setenv("MSE_EXECUTORS", "7", 1);
    EXPECT_EQ(MseService::defaultExecutors(), 7u);
    unsetenv("MSE_EXECUTORS");
    const size_t hw = MseService::defaultExecutors();
    EXPECT_GE(hw, 1u);
    EXPECT_LE(hw, 64u);
    if (!saved.empty())
        setenv("MSE_EXECUTORS", saved.c_str(), 1);
}

// -------------------------------------------------------- poll fallback

TEST_F(EventServerTest, PollBackendServesPipelinedRequests)
{
    ServerConfig ncfg;
    ncfg.poller = Poller::Kind::Poll;
    startServer(ncfg);
    const int fd = connect();
    LineReader reader(fd);
    const std::string burst = "{\"type\":\"ping\"}\n" +
        searchLine(",\"max_samples\":60") + "\n" +
        "{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    const auto replies = readReplies(reader, 3);
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_EQ(replies[0].getString("type", ""), "ping");
    EXPECT_EQ(replies[1].getInt("samples", -1), 60);
    EXPECT_EQ(replies[2].getString("type", ""), "ping");
    closeSocket(fd);
}

TEST(PollerUnit, BothBackendsReportReadAndWriteReadiness)
{
    std::vector<Poller::Kind> kinds = {Poller::Kind::Poll};
#ifdef __linux__
    kinds.push_back(Poller::Kind::Epoll);
#endif
    for (const Poller::Kind kind : kinds) {
        SCOPED_TRACE(kind == Poller::Kind::Poll ? "poll" : "epoll");
        Poller poller;
        std::string err;
        ASSERT_TRUE(poller.init(kind, &err)) << err;
        EXPECT_EQ(poller.usingEpoll(), kind == Poller::Kind::Epoll);

        int fds[2];
        ASSERT_EQ(::pipe(fds), 0);
        std::vector<Poller::Event> events;

        // Empty pipe: read interest, no events.
        ASSERT_TRUE(poller.add(fds[0], true, false));
        EXPECT_EQ(poller.wait(0, &events), 0);

        // One byte in: readable fires.
        ASSERT_EQ(::write(fds[1], "x", 1), 1);
        ASSERT_EQ(poller.wait(1000, &events), 1);
        EXPECT_EQ(events[0].fd, fds[0]);
        EXPECT_TRUE(events[0].readable);
        EXPECT_FALSE(events[0].writable);

        // Interest cleared: the pending byte no longer wakes us.
        ASSERT_TRUE(poller.mod(fds[0], false, false));
        EXPECT_EQ(poller.wait(0, &events), 0);

        // Write side: an empty pipe is immediately writable.
        ASSERT_TRUE(poller.add(fds[1], false, true));
        ASSERT_GE(poller.wait(1000, &events), 1);
        bool saw_writable = false;
        for (const auto &e : events)
            saw_writable |= (e.fd == fds[1] && e.writable);
        EXPECT_TRUE(saw_writable);

        poller.del(fds[0]);
        poller.del(fds[1]);
        EXPECT_EQ(poller.wait(0, &events), 0);
        ::close(fds[0]);
        ::close(fds[1]);
    }
}

// ------------------------------------------------------ fault injection

TEST_F(EventServerTest, ServesThroughEintrStormOnWait)
{
    // EINTR on every second wait, whichever readiness backend is
    // active: sys_io absorbs the interrupts against its deadline and
    // the loop keeps serving. (every:1 would also work — the wait
    // then degrades to a 0-return at each deadline — but every:2
    // exercises the interleaving of real and injected outcomes.)
    GlobalFaultGuard guard(
        "server.epoll.wait:every:2:EINTR,"
        "server.poll.wait:every:2:EINTR");
    ASSERT_TRUE(guard.ok());
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string line;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sendLine(fd, "{\"type\":\"ping\"}"));
        ASSERT_EQ(reader.readLine(&line, 30000),
                  LineReader::Status::Line)
            << "ping " << i;
    }
    ASSERT_TRUE(sendLine(fd, searchLine(",\"max_samples\":50")));
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto doc = parseJson(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->getBool("ok", false)) << line;
    closeSocket(fd);
    EXPECT_GT(FaultInjector::global().totalInjected(), 0u);
}

TEST_F(EventServerTest, EagainOnSendRetriesViaWriteReadiness)
{
    // A transient EAGAIN mid-reply: flushOut must arm write interest
    // and finish the (pipelined) replies when the socket reports
    // writable again — no bytes lost, order preserved.
    GlobalFaultGuard guard("server.send:once:1:EAGAIN");
    ASSERT_TRUE(guard.ok());
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string burst;
    for (int i = 0; i < 5; ++i)
        burst += "{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    const auto replies = readReplies(reader, 5, 30000);
    ASSERT_EQ(replies.size(), 5u);
    for (const auto &r : replies)
        EXPECT_EQ(r.getString("type", ""), "ping");
    closeSocket(fd);
    EXPECT_EQ(FaultInjector::global().injected("server.send"), 1u);
}

TEST_F(EventServerTest, AcceptFailureRecoversOnNextReadiness)
{
    // One injected accept failure: the pending connection stays in
    // the backlog, level-triggered readiness re-reports it, and the
    // retry accepts it.
    GlobalFaultGuard guard("server.accept:once:1:EIO");
    ASSERT_TRUE(guard.ok());
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(sendLine(fd, "{\"type\":\"ping\"}"));
    ASSERT_EQ(reader.readLine(&line, 30000), LineReader::Status::Line);
    closeSocket(fd);
    EXPECT_EQ(FaultInjector::global().injected("server.accept"), 1u);
}

TEST_F(EventServerTest, RecvFailureDropsOnlyThatConnection)
{
    // An injected ECONNRESET on the first read: the server drops that
    // one connection and keeps serving everyone else.
    GlobalFaultGuard guard("server.recv:once:1:ECONNRESET");
    ASSERT_TRUE(guard.ok());
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(sendLine(fd, "{\"type\":\"ping\"}"));
    // The drop arrives as a FIN (Closed) or, since our request bytes
    // die unread in the server's kernel buffer, as an RST (Error).
    const auto st = reader.readLine(&line, 30000);
    EXPECT_TRUE(st == LineReader::Status::Closed ||
                st == LineReader::Status::Error)
        << static_cast<int>(st);
    closeSocket(fd);
    EXPECT_EQ(FaultInjector::global().injected("server.recv"), 1u);

    const int fd2 = connect();
    LineReader reader2(fd2);
    ASSERT_TRUE(sendLine(fd2, "{\"type\":\"ping\"}"));
    EXPECT_EQ(reader2.readLine(&line, 30000), LineReader::Status::Line);
    closeSocket(fd2);
}

TEST_F(EventServerTest, WakePipeEintrIsAbsorbed)
{
    // EINTR on the completion-wake drain: sys_io retries inside
    // sysRead, so wakeups are never lost and every reply arrives.
    GlobalFaultGuard guard("server.wake.read:every:2:EINTR");
    ASSERT_TRUE(guard.ok());
    startServer();
    const int fd = connect();
    LineReader reader(fd);
    std::string line;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(sendLine(fd, searchLine(",\"max_samples\":40")));
        ASSERT_EQ(reader.readLine(&line, 60000),
                  LineReader::Status::Line)
            << "search " << i;
        const auto doc = parseJson(line);
        ASSERT_TRUE(doc.has_value());
        EXPECT_TRUE(doc->getBool("ok", false)) << line;
    }
    closeSocket(fd);
    EXPECT_GT(FaultInjector::global().injected("server.wake.read"), 0u);
}

TEST(Net, TcpNoDelayOnAcceptedLoopbackSocket)
{
    std::string err;
    const int lfd = listenTcp(0, &err);
    ASSERT_GE(lfd, 0) << err;
    const int cfd = connectTcp("127.0.0.1", boundPort(lfd), &err);
    ASSERT_GE(cfd, 0) << err;
    // connect() returned, so the handshake is done and a blocking
    // accept cannot wait.
    const int afd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(afd, 0);
    const auto noDelay = [](int fd) {
        int v = -1;
        socklen_t len = sizeof(v);
        EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, &len), 0);
        return v;
    };
    EXPECT_EQ(noDelay(afd), 0); // Nagle is on by default.
    EXPECT_TRUE(setTcpNoDelay(afd));
    EXPECT_NE(noDelay(afd), 0);
    closeSocket(afd);
    closeSocket(cfd);
    closeSocket(lfd);
}

// --------------------------------------- net-layer fault injection

TEST(NetFaults, PollFailureSurfacesAsReaderError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineReader reader(fds[0]);
    GlobalFaultGuard guard("net.poll:once:1:EIO");
    std::string line;
    EXPECT_EQ(reader.readLine(&line, 100), LineReader::Status::Error);
    closeSocket(fds[0]);
    closeSocket(fds[1]);
}

TEST(NetFaults, RecvFailureSurfacesAsReaderError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Data is pending, so poll reports readable; the recv then fails.
    ASSERT_TRUE(sendAll(fds[1], "x\n", 2));
    LineReader reader(fds[0]);
    GlobalFaultGuard guard("net.recv:once:1:ECONNRESET");
    std::string line;
    EXPECT_EQ(reader.readLine(&line, 1000), LineReader::Status::Error);
    closeSocket(fds[0]);
    closeSocket(fds[1]);
}

TEST(NetFaults, SendFailureReportsFalseThenRecovers)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    {
        GlobalFaultGuard guard("net.send:once:1:EPIPE");
        EXPECT_FALSE(sendLine(fds[0], "{\"type\":\"ping\"}"));
    }
    EXPECT_TRUE(sendLine(fds[0], "{\"type\":\"ping\"}"));
    closeSocket(fds[0]);
    closeSocket(fds[1]);
}

#ifdef __linux__

void
sigusr1Noop(int)
{
}

TEST(NetFaults, ConnectEintrRecoveryPathSurfacesPollFailure)
{
    // connectTcp finishes a signal-interrupted handshake by polling
    // for writability (site net.connect.poll). Reach that branch
    // deterministically: fill a backlog-0 listener so a blocking
    // connect hangs in SYN-retry, then interrupt it with a
    // no-SA_RESTART signal. The injected poll failure must surface as
    // a connect error — no hang, no half-open fd.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = &sigusr1Noop;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // connect() must return EINTR, not restart.
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 0), 0); // Smallest possible accept queue.
    const uint16_t port = boundPort(lfd);

    // Fill the queue with connects nobody accepts (non-blocking, so
    // the fillers themselves cannot hang the test).
    std::vector<int> fillers;
    addr.sin_port = htons(port);
    for (int i = 0; i < 16; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(setNonBlocking(fd));
        (void)::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr));
        fillers.push_back(fd);
    }

    GlobalFaultGuard guard("net.connect.poll:once:1:EIO");
    std::atomic<bool> done{false};
    pthread_t main_thread = pthread_self();
    std::thread pinger([&done, main_thread] {
        for (int i = 0; i < 2000 && !done.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            pthread_kill(main_thread, SIGUSR1);
        }
    });
    std::string err;
    const int fd = connectTcp("127.0.0.1", port, &err);
    done.store(true);
    pinger.join();
    EXPECT_EQ(fd, -1);
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(FaultInjector::global().injected("net.connect.poll"), 1u);

    for (const int f : fillers)
        closeSocket(f);
    closeSocket(lfd);
    sigaction(SIGUSR1, &old, nullptr);
}

// ------------------------------------------- poller fault injection

TEST(PollerFaults, EpollCreateFailureFailsInit)
{
    GlobalFaultGuard guard("server.epoll.create:once:1:EMFILE");
    Poller poller;
    std::string err;
    EXPECT_FALSE(poller.init(Poller::Kind::Epoll, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(FaultInjector::global().injected("server.epoll.create"),
              1u);
}

TEST(PollerFaults, EpollCtlFailureReportsAddError)
{
    Poller poller;
    std::string err;
    ASSERT_TRUE(poller.init(Poller::Kind::Epoll, &err)) << err;
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    {
        GlobalFaultGuard guard("server.epoll.ctl:once:1:ENOMEM");
        EXPECT_FALSE(poller.add(fds[0], true, false));
    }
    EXPECT_TRUE(poller.add(fds[0], true, false));
    poller.del(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
}

#endif // __linux__

} // namespace
} // namespace mse
