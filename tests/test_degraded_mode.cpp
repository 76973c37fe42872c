/**
 * @file
 * Graceful degradation under injected disk failures: the MappingStore
 * flips to read-only (in-memory bests keep serving) instead of
 * erroring out, the service keeps answering searches and surfaces the
 * degradation in stats/metrics, and tryRecover() returns the store to
 * disk once the fault clears. Faults are injected programmatically
 * through the process-global FaultInjector (the same machinery
 * MSE_FAULTS configures).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/fault_injection.hpp"
#include "service/mapping_store.hpp"
#include "service/service.hpp"
#include "test_helpers.hpp"

namespace mse {
namespace {

using test::miniNpu;
using test::tinyGemm;

/** Arms the global injector for one test, disarming on scope exit so
 *  a failing assertion cannot leak faults into later tests. */
class GlobalFaultGuard
{
  public:
    explicit GlobalFaultGuard(const std::string &config)
    {
        std::string err;
        EXPECT_TRUE(FaultInjector::global().configure(config, &err))
            << err;
    }
    ~GlobalFaultGuard() { FaultInjector::global().clear(); }
};

/** Per-test store path; drop any leftover file from an earlier test
 *  in this process to keep the tests hermetic. */
std::string
tempStorePath(const char *tag)
{
    const std::string path =
        test::tempPath(std::string("mse_degraded_") + tag + ".jsonl");
    std::remove(path.c_str());
    return path;
}

bool
record(MappingStore &store, const Workload &wl, const ArchConfig &arch,
       double score)
{
    return store.recordIfBetter(wl, arch, Objective::Edp,
                                /*sparse=*/false,
                                test::allAtTop(wl, arch), score,
                                /*energy_uj=*/1.0,
                                /*latency_cycles=*/score,
                                /*samples=*/10);
}

TEST(MappingStoreDegraded, InjectedEnospcFlipsReadOnlyNotBroken)
{
    const std::string path = tempStorePath("enospc");
    MappingStore store(path);
    ASSERT_FALSE(store.degraded());

    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();
    {
        GlobalFaultGuard guard("store.append:every:1:ENOSPC");
        // The in-memory update still happens (and reports true); only
        // the disk write is lost.
        EXPECT_TRUE(record(store, wl, arch, 100.0));
        EXPECT_TRUE(store.degraded());
        EXPECT_EQ(store.appendFailures(), 1u);
    }
    // Lookups keep answering from memory while degraded.
    const auto lk = store.lookup(wl, arch, Objective::Edp, false, 1.0);
    EXPECT_EQ(lk.hit, StoreHit::Exact);
    EXPECT_EQ(lk.entry.score, 100.0);
    EXPECT_EQ(store.size(), 1u);

    // Nothing reached the disk: a fresh store sees an empty file.
    MappingStore reread(path);
    EXPECT_EQ(reread.size(), 0u);
}

TEST(MappingStoreDegraded, DegradedStoreKeepsImprovingInMemory)
{
    const std::string path = tempStorePath("improve");
    MappingStore store(path);
    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();

    GlobalFaultGuard guard("store.append:every:1:ENOSPC");
    EXPECT_TRUE(record(store, wl, arch, 100.0));
    ASSERT_TRUE(store.degraded());
    // Degraded mode stops hammering the disk but not the in-memory
    // bests: a better score still wins (and a worse one still loses).
    EXPECT_TRUE(record(store, wl, arch, 50.0));
    EXPECT_FALSE(record(store, wl, arch, 80.0));
    const auto lk = store.lookup(wl, arch, Objective::Edp, false, 1.0);
    EXPECT_EQ(lk.entry.score, 50.0);
    EXPECT_GE(store.appendFailures(), 2u);
}

TEST(MappingStoreDegraded, TryRecoverRewritesFromMemory)
{
    const std::string path = tempStorePath("recover");
    MappingStore store(path);
    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();
    {
        // Recovery writes go through the compaction path, so a disk
        // that still fails there must keep the store degraded.
        GlobalFaultGuard guard("store.append:every:1:ENOSPC,"
                               "store.compact:every:1:ENOSPC");
        EXPECT_TRUE(record(store, wl, arch, 100.0));
        ASSERT_TRUE(store.degraded());
        EXPECT_FALSE(store.tryRecover());
        EXPECT_TRUE(store.degraded());
    }
    // Fault gone: recovery rewrites the file from the in-memory
    // superset and re-arms appends.
    EXPECT_TRUE(store.tryRecover());
    EXPECT_FALSE(store.degraded());
    MappingStore reread(path);
    EXPECT_EQ(reread.size(), 1u);
    const auto lk = reread.lookup(wl, arch, Objective::Edp, false, 1.0);
    EXPECT_EQ(lk.hit, StoreHit::Exact);
    EXPECT_EQ(lk.entry.score, 100.0);
}

TEST(MappingStoreDegraded, UnreadableFileAtLoadServesEmptyReadOnly)
{
    // EIO on the very first open: the store must come up (empty,
    // degraded) rather than throw — and must not append to a file it
    // never managed to read.
    const std::string path = tempStorePath("unreadable");
    GlobalFaultGuard guard("store.open:every:1:EIO");
    MappingStore store(path);
    EXPECT_TRUE(store.degraded());
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(record(store, tinyGemm(), miniNpu(), 100.0));
    EXPECT_GE(store.appendFailures(), 1u);
}

TEST(MappingStoreDegraded, MidFileReadFailureKeepsPrefixReadOnly)
{
    // The file opens fine but read(2) fails mid-load: appending after
    // an unknown suffix could shadow records we never saw, so the
    // store keeps whatever prefix parsed and goes read-only.
    const std::string path = tempStorePath("readfail");
    {
        MappingStore writer(path);
        EXPECT_TRUE(record(writer, tinyGemm(), miniNpu(), 100.0));
    }
    GlobalFaultGuard guard("store.read:every:1:EIO");
    MappingStore store(path);
    EXPECT_TRUE(store.degraded());
    EXPECT_EQ(store.size(), 0u); // First read failed: empty prefix.
}

TEST(MappingStoreDegraded, FsyncFailureDegradesDurableStore)
{
    // With fsync_each on, a failed fsync means the record may not be
    // durable even though write(2) succeeded — that counts as an
    // append failure and flips the store read-only.
    const std::string path = tempStorePath("fsyncfail");
    MappingStore store(path, /*fsync_each=*/true);
    {
        GlobalFaultGuard guard("store.fsync:once:1:EIO");
        EXPECT_TRUE(record(store, tinyGemm(), miniNpu(), 100.0));
        EXPECT_TRUE(store.degraded());
        EXPECT_EQ(store.appendFailures(), 1u);
        EXPECT_EQ(FaultInjector::global().injected("store.fsync"), 1u);
    }
    // The in-memory best still serves.
    const auto lk =
        store.lookup(tinyGemm(), miniNpu(), Objective::Edp, false, 1.0);
    EXPECT_EQ(lk.hit, StoreHit::Exact);
}

TEST(MappingStoreDegraded, RenameFailureLeavesCompactionUnapplied)
{
    // Compaction's final rename fails (and so does the cleanup
    // unlink): the original file must remain the authoritative copy,
    // and a clean retry must succeed.
    const std::string path = tempStorePath("renamefail");
    MappingStore store(path);
    const Workload wl = tinyGemm();
    const ArchConfig arch = miniNpu();
    EXPECT_TRUE(record(store, wl, arch, 100.0));
    EXPECT_TRUE(record(store, wl, arch, 50.0)); // Supersedes: 1 dead line.
    {
        GlobalFaultGuard guard("store.rename:once:1:EIO,"
                               "store.unlink:every:1:EIO");
        EXPECT_FALSE(store.compact());
        EXPECT_EQ(FaultInjector::global().injected("store.rename"), 1u);
        EXPECT_EQ(FaultInjector::global().injected("store.unlink"), 1u);
    }
    // The two-line append log is untouched and still parses.
    MappingStore reread(path);
    EXPECT_EQ(reread.size(), 1u);
    EXPECT_EQ(reread.deadLines(), 1u);
    const auto lk = reread.lookup(wl, arch, Objective::Edp, false, 1.0);
    EXPECT_EQ(lk.entry.score, 50.0);
    // Fault gone: the retry compacts away the superseded line.
    EXPECT_TRUE(store.compact());
    MappingStore compacted(path);
    EXPECT_EQ(compacted.size(), 1u);
    EXPECT_EQ(compacted.deadLines(), 0u);
}

TEST(ServiceDegraded, SearchesKeepAnsweringWithDegradedStore)
{
    ServiceConfig cfg;
    cfg.store_path = tempStorePath("service");

    GlobalFaultGuard guard("store.append:every:1:ENOSPC");
    MseService service(cfg);

    SearchRequest req;
    req.workload = makeGemm("degraded_gemm", 8, 64, 64, 64);
    req.arch = miniNpu();
    req.max_samples = 300;

    // First search: the write-back fails, the store degrades, the
    // reply is still a full answer.
    const SearchReply cold = service.search(req);
    ASSERT_TRUE(cold.ok) << cold.error_code << ": "
                         << cold.error_message;
    EXPECT_EQ(cold.store_hit, StoreHit::Miss);

    // Second search: warm-started from the *in-memory* best — the
    // degraded disk costs persistence, not warm starts.
    const SearchReply warm = service.search(req);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.store_hit, StoreHit::Exact);

    const JsonValue stats = service.statsJson();
    const JsonValue *store = stats.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_TRUE(store->getBool("degraded", false));
    EXPECT_GE(store->getInt("append_failures", 0), 1);
    // The degradation transition is a counted metrics event (once,
    // not once per search).
    EXPECT_EQ(store->getInt("degraded_events", 0), 1);
    // Fault-armed runs self-identify in stats.
    const JsonValue *faults = stats.find("faults");
    ASSERT_NE(faults, nullptr);
    EXPECT_TRUE(faults->getBool("armed", false));
    EXPECT_GE(faults->getInt("injected_total", 0), 1);

    service.stop(true);
}

TEST(ServiceDegraded, HealthyServiceReportsNoDegradation)
{
    ServiceConfig cfg;
    cfg.store_path = tempStorePath("healthy");
    MseService service(cfg);

    SearchRequest req;
    req.workload = makeGemm("healthy_gemm", 8, 64, 64, 64);
    req.arch = miniNpu();
    req.max_samples = 300;
    ASSERT_TRUE(service.search(req).ok);

    const JsonValue stats = service.statsJson();
    const JsonValue *store = stats.find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_FALSE(store->getBool("degraded", true));
    EXPECT_EQ(store->getInt("append_failures", -1), 0);
    EXPECT_EQ(store->getInt("degraded_events", -1), 0);
    // No faults armed -> no faults block at all.
    EXPECT_EQ(stats.find("faults"), nullptr);

    service.stop(true);
}

} // namespace
} // namespace mse
