/**
 * @file
 * Wire protocol and TCP front end: request decoding, reply encoding,
 * and the hostile-peer matrix (malformed JSON, oversized lines,
 * mid-request disconnects, queued-deadline expiry) against a live
 * loopback server.
 */
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "arch/arch.hpp"
#include "common/math_util.hpp"
#include "mapping/mapping_io.hpp"
#include "service/net.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "test_helpers.hpp"
#include "workload/workload_io.hpp"
#include "service/error_codes.hpp"

namespace mse {
namespace {

// ---------------------------------------------------------------- codec

std::optional<WireRequest>
parse(const std::string &line, std::string *code = nullptr)
{
    std::string c, m;
    const auto req = parseWireRequest(line, &c, &m);
    if (code)
        *code = c;
    if (!req) {
        EXPECT_FALSE(m.empty()) << line;
    }
    return req;
}

TEST(Wire, ParsesPingAndStats)
{
    auto ping = parse("{\"type\":\"ping\"}");
    ASSERT_TRUE(ping.has_value());
    EXPECT_EQ(ping->kind, WireRequest::Kind::Ping);
    auto stats = parse(" {\"type\":\"stats\"} ");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->kind, WireRequest::Kind::Stats);
}

TEST(Wire, ParsesFullSearchRequest)
{
    const auto req = parse(
        "{\"type\":\"search\","
        "\"workload\":{\"gemm\":{\"name\":\"g\",\"b\":2,\"m\":4,"
        "\"k\":8,\"n\":16}},"
        "\"arch\":\"accel-b\",\"mapper\":\"hill-climb\","
        "\"objective\":\"latency\",\"max_samples\":123,\"seed\":7,"
        "\"warm_start\":false,\"warm_seeds\":5,\"deadline_ms\":1500}");
    ASSERT_TRUE(req.has_value());
    ASSERT_EQ(req->kind, WireRequest::Kind::Search);
    const SearchRequest &s = req->search;
    EXPECT_EQ(serializeWorkload(s.workload),
              serializeWorkload(makeGemm("g", 2, 4, 8, 16)));
    EXPECT_EQ(s.arch.signature(), accelB().signature());
    EXPECT_EQ(s.mapper, "hill-climb");
    EXPECT_EQ(s.objective, Objective::Latency);
    EXPECT_EQ(s.max_samples, 123u);
    EXPECT_TRUE(s.seed_set);
    EXPECT_EQ(s.seed, 7u);
    EXPECT_FALSE(s.warm_start);
    EXPECT_EQ(s.warm_seeds, 5u);
    EXPECT_EQ(s.deadline_seconds, 1.5);
}

TEST(Wire, ParsesWorkloadStringArchObjectAndDensities)
{
    Workload ref = makeGemm("g", 1, 8, 8, 8);
    const auto req = parse(
        "{\"type\":\"search\","
        "\"workload\":\"" + serializeWorkload(ref) + "\","
        "\"arch\":{\"npu\":{\"l2_bytes\":8192,\"l1_bytes\":128,"
        "\"num_pes\":4,\"alus_per_pe\":2}},"
        "\"sparse\":true,\"densities\":{\"Weights\":0.25}}");
    ASSERT_TRUE(req.has_value());
    const SearchRequest &s = req->search;
    EXPECT_TRUE(s.sparse);
    EXPECT_EQ(s.workload.density("Weights"), 0.25);
    EXPECT_EQ(s.workload.density("Inputs"), 1.0);
    EXPECT_EQ(s.arch.signature(),
              makeNpu("npu", 8192, 128, 4, 2).signature());
}

TEST(Wire, RejectsBadRequestsWithStructuredCodes)
{
    const char *kGemm =
        "\"workload\":{\"gemm\":{\"b\":1,\"m\":8,\"k\":8,\"n\":8}}";
    const struct
    {
        const char *line;
        const char *code;
    } cases[] = {
        {"{oops", wire_errors::kBadJson},
        {"", wire_errors::kBadJson},
        {"42", wire_errors::kBadRequest},
        {"[]", wire_errors::kBadRequest},
        {"{}", wire_errors::kBadRequest},
        {"{\"type\":\"shutdown\"}", wire_errors::kBadRequest},
        {"{\"type\":\"search\"}", wire_errors::kBadWorkload},
        {"{\"type\":\"search\",\"workload\":\"not-wl1\"}",
         wire_errors::kBadWorkload},
        {"{\"type\":\"search\",\"workload\":{\"gemm\":"
         "{\"b\":0,\"m\":8,\"k\":8,\"n\":8}}}",
         wire_errors::kBadWorkload},
        {"{\"type\":\"search\",\"workload\":{\"gemm\":"
         "{\"b\":1,\"m\":2.5,\"k\":8,\"n\":8}}}",
         wire_errors::kBadWorkload},
        {"{\"type\":\"search\",\"workload\":{\"fft\":{}}}",
         wire_errors::kBadWorkload},
    };
    for (const auto &c : cases) {
        std::string code;
        EXPECT_FALSE(parse(c.line, &code).has_value()) << c.line;
        EXPECT_EQ(code, c.code) << c.line;
    }

    const std::string base =
        std::string("{\"type\":\"search\",") + kGemm;
    const struct
    {
        const char *tail;
        const char *code;
    } tails[] = {
        {"}", wire_errors::kBadArch},
        {",\"arch\":\"tpu-v9\"}", wire_errors::kBadArch},
        {",\"arch\":{\"npu\":{\"l2_bytes\":0,\"l1_bytes\":1,"
         "\"num_pes\":1,\"alus_per_pe\":1}}}",
         wire_errors::kBadArch},
        {",\"arch\":\"accel-A\",\"objective\":\"speed\"}",
         wire_errors::kBadRequest},
        {",\"arch\":\"accel-A\",\"max_samples\":-1}", wire_errors::kBadRequest},
        {",\"arch\":\"accel-A\",\"seed\":\"abc\"}", wire_errors::kBadRequest},
        {",\"arch\":\"accel-A\",\"densities\":{\"Weights\":2}}",
         wire_errors::kBadRequest},
        {",\"arch\":\"accel-A\",\"deadline_ms\":-5}", wire_errors::kBadRequest},
    };
    for (const auto &t : tails) {
        std::string code;
        EXPECT_FALSE(parse(base + t.tail, &code).has_value()) << t.tail;
        EXPECT_EQ(code, t.code) << t.tail;
    }
}

TEST(Wire, DensityOfUnknownTensorIsBadRequest)
{
    // A GEMM has Inputs/Weights/Outputs; "B" is a dimension, not a
    // tensor. Must be rejected at decode, not thrown later.
    std::string code, message;
    const auto req = parseWireRequest(
        "{\"type\":\"search\",\"workload\":{\"gemm\":{\"b\":1,\"m\":8,"
        "\"k\":8,\"n\":8}},\"arch\":\"accel-A\","
        "\"densities\":{\"B\":0.3}}",
        &code, &message);
    EXPECT_FALSE(req.has_value());
    EXPECT_EQ(code, wire_errors::kBadRequest);
    EXPECT_NE(message.find("'B'"), std::string::npos) << message;
}

TEST(Wire, ReplyEncoders)
{
    const JsonValue err = wireError(wire_errors::kBadJson, "oops");
    EXPECT_EQ(err.dump(),
              "{\"ok\":false,\"error\":{\"code\":\"bad_json\","
              "\"message\":\"oops\"}}");
    EXPECT_FALSE(err.getBool("ok", true));
    EXPECT_EQ(err.find("error")->getString("code", ""), wire_errors::kBadJson);

    SearchReply fail;
    fail.ok = false;
    fail.error_code = wire_errors::kDeadlineExceeded;
    fail.error_message = "too late";
    const JsonValue ferr = searchReplyJson(fail);
    EXPECT_FALSE(ferr.getBool("ok", true));
    EXPECT_EQ(ferr.find("error")->getString("code", ""),
              wire_errors::kDeadlineExceeded);

    SearchReply okr;
    okr.ok = true;
    okr.mapping = "v1;x";
    okr.score = 2.5;
    okr.samples = 10;
    okr.samples_to_incumbent = 3;
    okr.store_hit = StoreHit::Near;
    okr.warm_distance = 1.0;
    const auto parsed = parseJson(searchReplyJson(okr).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->getBool("ok", false));
    EXPECT_EQ(parsed->getString("mapping", ""), "v1;x");
    EXPECT_EQ(parsed->getDouble("score", 0.0), 2.5);
    EXPECT_EQ(parsed->getInt("samples", 0), 10);
    EXPECT_EQ(parsed->getInt("samples_to_incumbent", 0), 3);
    EXPECT_EQ(parsed->getString("store", ""), "near");
    ASSERT_NE(parsed->find("eval_cache"), nullptr);
    EXPECT_EQ(parsed->find("eval_cache")->getInt("hits", -1), 0);

    EXPECT_EQ(pingReplyJson().dump(), "{\"ok\":true,\"type\":\"ping\"}");

    // Retryable rejections carry a machine-readable retry_after_ms
    // hint inside the error object (DESIGN.md Sec. 9); terminal
    // errors omit it entirely.
    const JsonValue busy = wireError(wire_errors::kQueueFull, "try later", 750);
    EXPECT_EQ(busy.find("error")->getInt("retry_after_ms", -1), 750);
    EXPECT_EQ(err.find("error")->find("retry_after_ms"), nullptr);
    SearchReply shed;
    shed.ok = false;
    shed.error_code = wire_errors::kQueueFull;
    shed.error_message = "queue at capacity";
    shed.retry_after_ms = 1000;
    EXPECT_EQ(searchReplyJson(shed).find("error")->getInt(
                  "retry_after_ms", -1),
              1000);


    JsonValue stats = JsonValue::object();
    stats["queue_depth"] = 0;
    const JsonValue sr = statsReplyJson(stats);
    EXPECT_TRUE(sr.getBool("ok", false));
    EXPECT_EQ(sr.find("stats")->getInt("queue_depth", -1), 0);
}

/** One valid replicate payload unit (a best-mapping record). */
JsonValue
entryJson(double score = 42.0)
{
    const Workload wl = test::tinyGemm();
    const ArchConfig arch = test::miniNpu();
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = fnv1a64Hex(arch.signature());
    e.objective = Objective::Edp;
    e.mapping = test::allAtTop(wl, arch);
    e.score = score;
    e.energy_uj = 1.0;
    e.latency_cycles = 10.0;
    e.samples = 7;
    return MappingStore::encodeEntryJson(e);
}

TEST(Wire, TolerantReaderIgnoresUnknownTopLevelFields)
{
    // The rolling-upgrade contract (wire.hpp): a newer peer may add
    // top-level fields; an older daemon must parse the request as if
    // they were absent, never reject it. Pinned here so a future
    // strict-validation refactor cannot silently break mixed-version
    // clusters.
    auto ping = parse(
        "{\"type\":\"ping\",\"trace_id\":\"t-1\",\"hops\":3}");
    ASSERT_TRUE(ping.has_value());
    EXPECT_EQ(ping->kind, WireRequest::Kind::Ping);

    auto stats = parse(
        "{\"type\":\"stats\",\"verbose\":true,"
        "\"extensions\":{\"future\":[1,2,3]}}");
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->kind, WireRequest::Kind::Stats);

    auto search = parse(
        "{\"type\":\"search\","
        "\"workload\":{\"gemm\":{\"b\":2,\"m\":4,\"k\":8,\"n\":16}},"
        "\"arch\":\"accel-A\",\"max_samples\":9,"
        "\"priority\":\"high\",\"client\":{\"version\":99}}");
    ASSERT_TRUE(search.has_value());
    ASSERT_EQ(search->kind, WireRequest::Kind::Search);
    EXPECT_EQ(search->search.max_samples, 9u);
    EXPECT_EQ(serializeWorkload(search->search.workload),
              serializeWorkload(makeGemm("gemm", 2, 4, 8, 16)));

    JsonValue msg = JsonValue::object();
    msg["type"] = "replicate";
    msg["from"] = "127.0.0.1:1";
    msg["entries"] = JsonValue::array();
    msg["entries"].push(entryJson());
    msg["epoch"] = 12; // unknown to this build
    auto rep = parse(msg.dump());
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->kind, WireRequest::Kind::Replicate);
    EXPECT_EQ(rep->replicate_entries.size(), 1u);
}

TEST(Wire, ParsesReplicateBatches)
{
    JsonValue msg = JsonValue::object();
    msg["type"] = "replicate";
    msg["from"] = "127.0.0.1:9001";
    JsonValue &entries = msg["entries"];
    entries = JsonValue::array();
    entries.push(entryJson(10.0));
    JsonValue bad = entryJson(5.0);
    bad["arch_sig"] = "xyz"; // not a 16-hex signature hash
    entries.push(bad);
    entries.push(JsonValue(static_cast<int64_t>(42))); // not an object

    const auto req = parse(msg.dump());
    ASSERT_TRUE(req.has_value());
    ASSERT_EQ(req->kind, WireRequest::Kind::Replicate);
    EXPECT_EQ(req->from, "127.0.0.1:9001");
    // Invalid entries are skipped and counted, never fatal: one bad
    // record must not wedge replication of the rest of the batch.
    ASSERT_EQ(req->replicate_entries.size(), 1u);
    EXPECT_EQ(req->replicate_invalid, 2u);
    EXPECT_EQ(req->replicate_entries[0].score, 10.0);

    // An empty batch is valid (a peer flushing nothing).
    auto empty =
        parse("{\"type\":\"replicate\",\"entries\":[]}");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->replicate_entries.empty());
    EXPECT_TRUE(empty->from.empty());

    // Missing or non-array entries: structurally broken, rejected.
    std::string code;
    EXPECT_FALSE(parse("{\"type\":\"replicate\"}", &code).has_value());
    EXPECT_EQ(code, wire_errors::kBadRequest);
    EXPECT_FALSE(
        parse("{\"type\":\"replicate\",\"entries\":7}", &code)
            .has_value());
    EXPECT_EQ(code, wire_errors::kBadRequest);
}

TEST(Wire, ParsesProbeAndSyncRequests)
{
    // Probe: trivially small, tolerant of extras, `from` optional.
    auto probe = parse(
        "{\"type\":\"probe\",\"from\":\"127.0.0.1:7001\",\"v\":2}");
    ASSERT_TRUE(probe.has_value());
    EXPECT_EQ(probe->kind, WireRequest::Kind::Probe);
    EXPECT_EQ(probe->from, "127.0.0.1:7001");
    auto bare = parse("{\"type\":\"probe\"}");
    ASSERT_TRUE(bare.has_value());
    EXPECT_TRUE(bare->from.empty());

    // Sync: the digest maps store key -> local best score.
    auto sync = parse(
        "{\"type\":\"sync\",\"from\":\"127.0.0.1:7002\","
        "\"digest\":{\"k1\":1.5,\"k2\":2,\"bogus\":\"nan\"}}");
    ASSERT_TRUE(sync.has_value());
    EXPECT_EQ(sync->kind, WireRequest::Kind::Sync);
    EXPECT_EQ(sync->from, "127.0.0.1:7002");
    // Non-numeric digest values are skipped (the responder then treats
    // the key as missing — extra shipped data merges idempotently).
    ASSERT_EQ(sync->sync_digest.size(), 2u);
    for (const auto &kv : sync->sync_digest) {
        if (kv.first == "k1")
            EXPECT_EQ(kv.second, 1.5);
        else
            EXPECT_EQ(kv.first, "k2");
    }
    // An empty digest is valid: a cold daemon wants everything.
    auto cold = parse("{\"type\":\"sync\",\"digest\":{}}");
    ASSERT_TRUE(cold.has_value());
    EXPECT_TRUE(cold->sync_digest.empty());

    // Missing or non-object digest: structurally broken, rejected.
    std::string code;
    EXPECT_FALSE(parse("{\"type\":\"sync\"}", &code).has_value());
    EXPECT_EQ(code, wire_errors::kBadRequest);
    EXPECT_FALSE(
        parse("{\"type\":\"sync\",\"digest\":[1]}", &code).has_value());
    EXPECT_EQ(code, wire_errors::kBadRequest);
}

TEST(Wire, ProbeAndSyncReplyEncoders)
{
    const JsonValue pr = probeReplyJson();
    EXPECT_TRUE(pr.getBool("ok", false));
    EXPECT_EQ(pr.getString("type", ""), "probe");

    std::vector<StoreEntry> entries;
    auto e = MappingStore::decodeEntryJson(entryJson(4.0));
    ASSERT_TRUE(e.has_value());
    entries.push_back(*e);
    const JsonValue sr = syncReplyJson(entries);
    EXPECT_TRUE(sr.getBool("ok", false));
    EXPECT_EQ(sr.getString("type", ""), "sync");
    EXPECT_EQ(sr.getInt("sent", -1), 1);
    const JsonValue *arr = sr.find("entries");
    ASSERT_NE(arr, nullptr);
    ASSERT_TRUE(arr->isArray());
    // The shipped records round-trip through the store codec.
    auto back = MappingStore::decodeEntryJson(arr->items()[0]);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->score, 4.0);

    const JsonValue none = syncReplyJson({});
    EXPECT_EQ(none.getInt("sent", -1), 0);
}

TEST(Wire, ClusterReplyEncoders)
{
    const JsonValue rr = replicateReplyJson(3, 2);
    EXPECT_TRUE(rr.getBool("ok", false));
    EXPECT_EQ(rr.getString("type", ""), "replicate");
    EXPECT_EQ(rr.getInt("merged", -1), 3);
    EXPECT_EQ(rr.getInt("ignored", -1), 2);

    // wrong_shard rejections carry the owner so a client can follow.
    SearchReply wrong;
    wrong.ok = false;
    wrong.error_code = wire_errors::kWrongShard;
    wrong.error_message = "not mine";
    wrong.error_owner = "127.0.0.1:7002";
    const JsonValue wj = searchReplyJson(wrong);
    EXPECT_EQ(wj.find("error")->getString("owner", ""),
              "127.0.0.1:7002");

    // Cluster observability fields ride successful replies — and stay
    // entirely off the wire outside a cluster.
    SearchReply okr;
    okr.ok = true;
    okr.mapping = "v1;x";
    okr.score = 1.0;
    okr.served_by = "127.0.0.1:7001";
    okr.store_key = "k|a|EDP|dense";
    const JsonValue oj = searchReplyJson(okr);
    EXPECT_EQ(oj.getString("served_by", ""), "127.0.0.1:7001");
    EXPECT_EQ(oj.getString("store_key", ""), "k|a|EDP|dense");
    okr.served_by.clear();
    okr.store_key.clear();
    const JsonValue pj = searchReplyJson(okr);
    EXPECT_EQ(pj.find("served_by"), nullptr);
    EXPECT_EQ(pj.find("store_key"), nullptr);
}

// ----------------------------------------------------------- TCP server

/** Live loopback server over a fast in-memory service. */
class WireTcpTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ServiceConfig scfg;
        scfg.default_samples = 150;
        service_ = std::make_unique<MseService>(scfg);
        ServerConfig ncfg;
        ncfg.max_line_bytes = 2048;
        server_ = std::make_unique<ServiceServer>(*service_, ncfg);
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
    }

    void TearDown() override
    {
        server_->stop();
    }

    int connect()
    {
        std::string err;
        const int fd = connectTcp("127.0.0.1", server_->port(), &err);
        EXPECT_GE(fd, 0) << err;
        return fd;
    }

    /** Send one line and read one reply line, parsed. */
    JsonValue roundTrip(int fd, LineReader &r, const std::string &line,
                        int timeout_ms = 60000)
    {
        EXPECT_TRUE(sendLine(fd, line));
        std::string out;
        EXPECT_EQ(r.readLine(&out, timeout_ms), LineReader::Status::Line)
            << line;
        const auto doc = parseJson(out);
        EXPECT_TRUE(doc.has_value()) << out;
        return doc ? *doc : JsonValue();
    }

    static std::string searchLine(const char *extra = "")
    {
        return std::string(
                   "{\"type\":\"search\",\"workload\":{\"gemm\":"
                   "{\"b\":1,\"m\":8,\"k\":8,\"n\":8}},"
                   "\"arch\":{\"npu\":{\"l2_bytes\":8192,"
                   "\"l1_bytes\":128,\"num_pes\":4,"
                   "\"alus_per_pe\":2}}") +
            extra + "}";
    }

    std::unique_ptr<MseService> service_;
    std::unique_ptr<ServiceServer> server_;
};

TEST_F(WireTcpTest, PingStatsAndSearchRoundTrip)
{
    const int fd = connect();
    LineReader reader(fd);

    const JsonValue pong = roundTrip(fd, reader, "{\"type\":\"ping\"}");
    EXPECT_TRUE(pong.getBool("ok", false));
    EXPECT_EQ(pong.getString("type", ""), "ping");

    const JsonValue cold = roundTrip(fd, reader, searchLine());
    ASSERT_TRUE(cold.getBool("ok", false)) << cold.dump();
    EXPECT_FALSE(cold.getString("mapping", "").empty());
    EXPECT_EQ(cold.getString("store", ""), "cold");
    EXPECT_EQ(cold.getInt("samples", 0), 150);

    // Same request again: served warm out of the mapping store.
    const JsonValue warm = roundTrip(fd, reader, searchLine());
    ASSERT_TRUE(warm.getBool("ok", false));
    EXPECT_EQ(warm.getString("store", ""), "exact");
    EXPECT_EQ(warm.getDouble("warm_distance", -1.0), 0.0);
    EXPECT_LE(warm.getInt("samples_to_incumbent", 1 << 20),
              warm.getInt("samples", 0));
    EXPECT_LE(warm.getDouble("score", 1e300),
              cold.getDouble("score", 0.0) * (1.0 + 1e-9));

    const JsonValue stats =
        roundTrip(fd, reader, "{\"type\":\"stats\"}");
    ASSERT_TRUE(stats.getBool("ok", false));
    const JsonValue *body = stats.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("requests")->getInt("search", 0), 2);
    EXPECT_EQ(body->find("store")->getInt("exact_hits", 0), 1);
    closeSocket(fd);
}

TEST_F(WireTcpTest, MalformedJsonGetsErrorAndConnectionSurvives)
{
    const int fd = connect();
    LineReader reader(fd);
    const JsonValue err = roundTrip(fd, reader, "{\"type\":oops");
    EXPECT_FALSE(err.getBool("ok", true));
    EXPECT_EQ(err.find("error")->getString("code", ""), wire_errors::kBadJson);

    const JsonValue err2 =
        roundTrip(fd, reader, "{\"type\":\"selfdestruct\"}");
    EXPECT_EQ(err2.find("error")->getString("code", ""), wire_errors::kBadRequest);

    // Same connection still serves valid requests.
    const JsonValue pong = roundTrip(fd, reader, "{\"type\":\"ping\"}");
    EXPECT_TRUE(pong.getBool("ok", false));
    closeSocket(fd);
}

TEST_F(WireTcpTest, HostileMappingShapeInReplicateIsSkipped)
{
    // A replicated record whose mapping claims two billion levels must
    // be refused by the decoder before it allocates anything: it counts
    // as ignored, the valid record beside it merges, and the next
    // pipelined line on the connection is still served.
    JsonValue hostile = entryJson(3.0);
    hostile["mapping"] = "v1;L=2000000000;D=1";
    JsonValue msg = JsonValue::object();
    msg["type"] = "replicate";
    msg["from"] = "127.0.0.1:1";
    msg["entries"] = JsonValue::array();
    msg["entries"].push(hostile);
    msg["entries"].push(entryJson(5.0));

    const auto req = parse(msg.dump());
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->replicate_invalid, 1u);
    EXPECT_EQ(req->replicate_entries.size(), 1u);

    const int fd = connect();
    LineReader reader(fd);
    const std::string burst = msg.dump() + "\n{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto rep = parseJson(line);
    ASSERT_TRUE(rep.has_value()) << line;
    EXPECT_TRUE(rep->getBool("ok", false)) << line;
    EXPECT_EQ(rep->getInt("merged", -1), 1);
    EXPECT_EQ(rep->getInt("ignored", -1), 1);
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto pong = parseJson(line);
    ASSERT_TRUE(pong.has_value()) << line;
    EXPECT_EQ(pong->getString("type", ""), "ping");
    closeSocket(fd);
}

TEST_F(WireTcpTest, ReplicateRecordsThatDoNotFitTheirWorkloadAreSkipped)
{
    // A record whose mapping has another dim count than its workload,
    // and one whose keep mask is longer than the workload's tensor
    // count: both count in replicate_invalid, the valid record merges,
    // and the next pipelined line is still served.
    const Workload wl = test::tinyGemm();
    const ArchConfig arch = test::miniNpu();
    JsonValue wrong_dims = entryJson(3.0);
    wrong_dims["mapping"] =
        serializeMapping(Mapping(arch.numLevels(), wl.numDims() - 1));
    JsonValue long_mask = entryJson(4.0);
    Mapping masked = test::allAtTop(wl, arch);
    masked.setKeepMask(
        0, std::vector<uint8_t>(static_cast<size_t>(wl.numTensors()) + 1, 1));
    long_mask["mapping"] = serializeMapping(masked);
    JsonValue msg = JsonValue::object();
    msg["type"] = "replicate";
    msg["from"] = "127.0.0.1:1";
    msg["entries"] = JsonValue::array();
    msg["entries"].push(wrong_dims);
    msg["entries"].push(long_mask);
    msg["entries"].push(entryJson(5.0));

    const auto req = parse(msg.dump());
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->replicate_invalid, 2u);
    EXPECT_EQ(req->replicate_entries.size(), 1u);

    const int fd = connect();
    LineReader reader(fd);
    const std::string burst = msg.dump() + "\n{\"type\":\"ping\"}\n";
    ASSERT_TRUE(sendAll(fd, burst.data(), burst.size()));
    std::string line;
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto rep = parseJson(line);
    ASSERT_TRUE(rep.has_value()) << line;
    EXPECT_TRUE(rep->getBool("ok", false)) << line;
    EXPECT_EQ(rep->getInt("merged", -1), 1);
    EXPECT_EQ(rep->getInt("ignored", -1), 2);
    ASSERT_EQ(reader.readLine(&line, 60000), LineReader::Status::Line);
    const auto pong = parseJson(line);
    ASSERT_TRUE(pong.has_value()) << line;
    EXPECT_EQ(pong->getString("type", ""), "ping");
    closeSocket(fd);
}

TEST_F(WireTcpTest, OversizedLineGetsErrorThenClose)
{
    const int fd = connect();
    LineReader reader(fd);
    // 4 KiB of junk against a 2 KiB cap: framing is unrecoverable, so
    // the server must answer with a structured error and hang up.
    std::string huge(4096, 'x');
    sendLine(fd, huge); // may fail mid-send if the server closes early
    std::string out;
    ASSERT_EQ(reader.readLine(&out, 60000), LineReader::Status::Line);
    const auto doc = parseJson(out);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("error")->getString("code", ""),
              wire_errors::kRequestTooLarge);
    // The server hangs up; closing with unread junk queued may surface
    // as a reset (Error) rather than a clean EOF (Closed).
    const auto st = reader.readLine(&out, 60000);
    EXPECT_TRUE(st == LineReader::Status::Closed ||
                st == LineReader::Status::Error);
    closeSocket(fd);
}

TEST_F(WireTcpTest, MidRequestDisconnectLeavesServerHealthy)
{
    const int fd = connect();
    // Half a request, no newline, then vanish.
    const std::string partial = "{\"type\":\"sea";
    ASSERT_TRUE(sendAll(fd, partial.data(), partial.size()));
    closeSocket(fd);

    // The server shrugged it off and serves the next client.
    const int fd2 = connect();
    LineReader reader(fd2);
    const JsonValue pong = roundTrip(fd2, reader, "{\"type\":\"ping\"}");
    EXPECT_TRUE(pong.getBool("ok", false));
    closeSocket(fd2);
}

TEST_F(WireTcpTest, DisconnectCancelsSearchAndQueuedDeadlineExpires)
{
    // Client 1 starts a huge search, client 2 queues behind it with a
    // deadline that dies in the queue. Client 1 then hangs up: the
    // server must cancel its running search (freeing the executor) and
    // client 2 must get a deadline_exceeded error, not a search.
    const int fd1 = connect();
    ASSERT_TRUE(
        sendLine(fd1, searchLine(",\"max_samples\":50000000")));
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    const int fd2 = connect();
    LineReader reader2(fd2);
    ASSERT_TRUE(sendLine(fd2, searchLine(",\"deadline_ms\":1")));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    closeSocket(fd1); // EOF on the loop cancels the running search

    std::string out;
    ASSERT_EQ(reader2.readLine(&out, 60000), LineReader::Status::Line);
    const auto doc = parseJson(out);
    ASSERT_TRUE(doc.has_value()) << out;
    EXPECT_FALSE(doc->getBool("ok", true));
    EXPECT_EQ(doc->find("error")->getString("code", ""),
              wire_errors::kDeadlineExceeded);
    closeSocket(fd2);
}

} // namespace
} // namespace mse
