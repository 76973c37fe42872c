/**
 * @file
 * Hinted handoff: the HintLog bounded file-backed queue (overflow,
 * persistence, torn-tail recovery, fault-site behavior) and the
 * ReplicationAgent's spill-on-Down / drain-on-recovery path against a
 * real loopback daemon — the in-process version of what the chaos
 * harness Phase 6 certifies across partition cycles.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/hints.hpp"
#include "cluster/replication.hpp"
#include "common/cluster_faults.hpp"
#include "common/fault_injection.hpp"
#include "common/math_util.hpp"
#include "service/server.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

using test::allAtTop;
using test::miniNpu;
using test::tinyGemm;

/** Arms the global injector for one test, disarming on scope exit. */
class GlobalFaultGuard
{
  public:
    explicit GlobalFaultGuard(const std::string &config)
    {
        std::string err;
        EXPECT_TRUE(FaultInjector::global().configure(config, &err))
            << err;
    }
    ~GlobalFaultGuard()
    {
        FaultInjector::global().clear();
        clusterFaultPeersConfigure("");
    }
};

bool
waitUntil(const std::function<bool()> &pred, int timeout_ms = 15000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

StoreEntry
makeEntry(int m, double score)
{
    const Workload wl = makeGemm("g", 1, m, 8, 8);
    const ArchConfig arch = miniNpu();
    StoreEntry e;
    e.workload = wl;
    e.arch_sig = fnv1a64Hex(arch.signature());
    e.objective = Objective::Edp;
    e.mapping = allAtTop(wl, arch);
    e.score = score;
    e.energy_uj = 1.0;
    e.latency_cycles = 10.0;
    e.samples = 5;
    return e;
}

std::string
tempHintPrefix(const char *tag)
{
    return test::tempPath(std::string("mse_hints_") + tag + "_");
}

std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

// ----------------------------------------------------------- HintLog

TEST(HintFilePath, SanitizesPeerAddressIntoPrefix)
{
    EXPECT_EQ(hintFilePath("/tmp/store.", "127.0.0.1:9001"),
              "/tmp/store.hints_127.0.0.1_9001.jsonl");
    // '/' in a peer address must not create directories.
    EXPECT_EQ(hintFilePath("p.", "a/b:1"), "p.hints_a_b_1.jsonl");
    // Empty prefix = memory-only log, no file at all.
    EXPECT_EQ(hintFilePath("", "127.0.0.1:9001"), "");
}

TEST(HintLog, OverflowDropsOldestAndCountsIt)
{
    HintLog log("", 3);
    for (int m = 1; m <= 5; ++m)
        log.push(makeEntry(m, 10.0 * m));
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(log.dropped(), 2u);
    // The survivors are the freshest three, oldest-first.
    const auto batch = log.peek(10);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].score, 30.0);
    EXPECT_EQ(batch[2].score, 50.0);
    log.popFront(2);
    EXPECT_EQ(log.size(), 1u);
}

TEST(HintLog, PersistsAcrossReconstructionAndTruncatesWhenDrained)
{
    const std::string path =
        tempHintPrefix("persist") + "hints_peer.jsonl";
    std::remove(path.c_str());
    {
        HintLog log(path, 64);
        for (int m = 1; m <= 3; ++m)
            log.push(makeEntry(m, 7.0 * m));
        EXPECT_EQ(log.size(), 3u);
    }
    // A restart (new HintLog over the same file) sees every hint.
    HintLog reloaded(path, 64);
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_FALSE(reloaded.tailUnterminated());
    EXPECT_EQ(reloaded.malformedLines(), 0u);
    const auto batch = reloaded.peek(10);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].score, 7.0);
    // Draining the queue truncates the backing file.
    reloaded.popFront(3);
    EXPECT_EQ(reloaded.size(), 0u);
    EXPECT_TRUE(slurp(path).empty());
    HintLog empty(path, 64);
    EXPECT_EQ(empty.size(), 0u);
    std::remove(path.c_str());
}

TEST(HintLog, LoadRecoversTornTailAndSkipsMalformedLines)
{
    const std::string path = tempHintPrefix("tail") + "hints_t.jsonl";
    std::remove(path.c_str());
    // One good line, one malformed line, and a crash-torn final line
    // (valid JSON, no trailing newline) — the MappingStore tail
    // conventions apply verbatim.
    const std::string good = MappingStore::encodeEntry(makeEntry(1, 5.0));
    const std::string torn = MappingStore::encodeEntry(makeEntry(2, 6.0));
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "%s\n{not json}\n%s", good.c_str(), torn.c_str());
    std::fclose(f);

    HintLog log(path, 64);
    EXPECT_EQ(log.size(), 2u);
    EXPECT_EQ(log.malformedLines(), 1u);
    EXPECT_TRUE(log.tailUnterminated());
    const auto batch = log.peek(10);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].score, 5.0);
    EXPECT_EQ(batch[1].score, 6.0);
    std::remove(path.c_str());
}

TEST(HintLog, AppendFaultKeepsHintInMemoryOnly)
{
    const std::string path = tempHintPrefix("afault") + "hints_a.jsonl";
    std::remove(path.c_str());
    HintLog log(path, 64);
    {
        GlobalFaultGuard guard("cluster.hint.append:every:1:EIO");
        log.push(makeEntry(1, 5.0));
    }
    // The hint is live in memory — append failure costs only the
    // crash-durability of this one hint, never the hint itself.
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(slurp(path).empty());
    // With the fault cleared the next push appends normally.
    log.push(makeEntry(2, 6.0));
    EXPECT_EQ(log.size(), 2u);
    EXPECT_FALSE(slurp(path).empty());
    std::remove(path.c_str());
}

TEST(HintLog, ReadFaultLoadsNothingWithoutCrashing)
{
    const std::string path = tempHintPrefix("rfault") + "hints_r.jsonl";
    std::remove(path.c_str());
    {
        HintLog log(path, 64);
        log.push(makeEntry(1, 5.0));
    }
    GlobalFaultGuard guard("cluster.hint.read:every:1:EIO");
    // Unreadable hint file = no pending hints (anti-entropy sync
    // backstops the loss); the daemon must come up regardless.
    HintLog log(path, 64);
    EXPECT_EQ(log.size(), 0u);
    std::remove(path.c_str());
}

// --------------------------------------- agent-level spill and drain

/** One loopback daemon that accepts replicate batches. */
struct LiveNode
{
    std::unique_ptr<MseService> service;
    std::unique_ptr<ServiceServer> server;
    std::string addr;

    LiveNode()
    {
        ServiceConfig scfg;
        scfg.executors = 2; // ThreadPool one-top-level-caller contract.
        service = std::make_unique<MseService>(scfg);
        server = std::make_unique<ServiceServer>(*service,
                                                 ServerConfig{});
        std::string err;
        EXPECT_TRUE(server->start(&err)) << err;
        addr = "127.0.0.1:" + std::to_string(server->port());
    }
};

ReplicationConfig
fastAgent()
{
    ReplicationConfig rcfg;
    rcfg.flush_interval_ms = 5;
    rcfg.backoff_base_ms = 10;
    rcfg.backoff_cap_ms = 40;
    rcfg.io_timeout_ms = 2000;
    return rcfg;
}

/** Hooks whose health answer is a shared switch the test flips. */
ReplicationHooks
switchedHealth(const std::shared_ptr<std::atomic<int>> &down)
{
    ReplicationHooks hooks;
    hooks.health_of = [down](const std::string &) {
        return down->load() ? PeerHealth::Down : PeerHealth::Up;
    };
    return hooks;
}

TEST(ReplicationAgentHints, SpillsOnDownAndDrainsOnRecovery)
{
    LiveNode peer;
    ClusterConfig cluster;
    cluster.self = "127.0.0.1:1";
    cluster.nodes = {cluster.self, peer.addr};
    cluster.replication = 2;
    auto down = std::make_shared<std::atomic<int>>(1);
    ReplicationAgent agent(cluster, fastAgent(), switchedHealth(down));

    // Down peer: the batch parks in the hint queue, no socket burns.
    agent.enqueue(makeEntry(1, 10.0));
    ASSERT_TRUE(waitUntil([&] {
        return agent.hintDepth() == 1 && agent.queueDepth() == 0;
    }));
    const JsonValue parked = agent.statsJson();
    EXPECT_EQ(parked.getInt("hints_queued", -1), 1);
    EXPECT_EQ(parked.getInt("ship_failures", -1), 0);

    // Recovery: the worker drains hints oldest-first into the peer.
    down->store(0);
    ASSERT_TRUE(waitUntil([&] {
        return peer.service->store().size() == 1 &&
               agent.hintDepth() == 0;
    }));
    const JsonValue drained = agent.statsJson();
    EXPECT_EQ(drained.getInt("hints_shipped", -1), 1);
    EXPECT_GE(drained.getInt("merged_by_peers", -1), 1);
    agent.stop();
}

TEST(ReplicationAgentHints, SustainedDeathOverflowsBoundedHintQueue)
{
    // A peer that stays Down cannot grow hints without bound: the
    // queue holds hint_capacity and drops the oldest, counted.
    ClusterConfig cluster;
    cluster.self = "127.0.0.1:1";
    cluster.nodes = {cluster.self, "127.0.0.1:9"};
    cluster.replication = 2;
    ReplicationConfig rcfg = fastAgent();
    rcfg.hint_capacity = 4;
    auto down = std::make_shared<std::atomic<int>>(1);
    ReplicationAgent agent(cluster, rcfg, switchedHealth(down));

    for (int m = 1; m <= 10; ++m)
        agent.enqueue(makeEntry(m, 10.0 * m));
    ASSERT_TRUE(waitUntil([&] {
        const JsonValue s = agent.statsJson();
        return s.getInt("hints_dropped", 0) >= 6 &&
               agent.hintDepth() == 4;
    }));
    const JsonValue s = agent.statsJson();
    EXPECT_EQ(s.getInt("hints_queued", -1), 4);
    EXPECT_EQ(s.getInt("hints_dropped", -1), 6);
    agent.stop();
}

TEST(ReplicationAgentHints, HintFileCarriesHandoffAcrossRestart)
{
    // SIGKILL-grade restart: agent one spills to the hint file and
    // dies without draining; agent two (same prefix) picks the hints
    // up from disk and delivers them once the peer is reachable.
    LiveNode peer;
    const std::string prefix = tempHintPrefix("restart");
    std::remove(hintFilePath(prefix, peer.addr).c_str());
    ClusterConfig cluster;
    cluster.self = "127.0.0.1:1";
    cluster.nodes = {cluster.self, peer.addr};
    cluster.replication = 2;
    ReplicationConfig rcfg = fastAgent();
    rcfg.hint_path_prefix = prefix;

    auto down = std::make_shared<std::atomic<int>>(1);
    {
        ReplicationAgent agent(cluster, rcfg, switchedHealth(down));
        agent.enqueue(makeEntry(1, 10.0));
        agent.enqueue(makeEntry(2, 20.0));
        ASSERT_TRUE(waitUntil([&] { return agent.hintDepth() == 2; }));
        agent.stop(); // Stop never drains hints: the file keeps them.
    }

    auto up = std::make_shared<std::atomic<int>>(0);
    ReplicationAgent revived(cluster, rcfg, switchedHealth(up));
    EXPECT_EQ(revived.hintDepth(), 2u);
    ASSERT_TRUE(waitUntil(
        [&] { return peer.service->store().size() == 2; }));
    ASSERT_TRUE(waitUntil([&] { return revived.hintDepth() == 0; }));
    revived.stop();
    std::remove(
        hintFilePath(prefix, peer.addr).c_str());
}

} // namespace
} // namespace mse
