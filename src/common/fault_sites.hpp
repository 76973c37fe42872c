/**
 * @file
 * The fault-site registry: every named injection site the sys_io seam
 * (and the event loop) consults via faultCheck(), as named constants.
 *
 * Site names are a cross-file contract: passed to the sys* wrappers in
 * `src/service/`/`src/cluster/`, armed by MSE_FAULTS grammar strings
 * in tests and the chaos harness, and listed in README's fault-site
 * table. The literals live here and nowhere else in src/ —
 * `tools/mse_analyze.py` (rule `dup-literal`) rejects a site literal
 * typed out at a call site, and its registry rules cross-check this
 * header against the src/ uses, the tests/chaos configs that arm each
 * site, and the README table.
 *
 * Tests and shell harnesses keep using the plain strings (that is the
 * user-facing MSE_FAULTS surface); the analyzer reads those literals
 * to decide which sites are actually exercised
 * (rule `fault-site-unexercised`).
 *
 * Adding a site: define the constant, add it to kAllSites, consult it
 * from a wrapper call, arm it in a test or chaos phase, and add the
 * README row — the analyzer fails CI until all of them agree.
 */
#pragma once

namespace mse {
namespace fault_sites {

// MappingStore durability path (src/service/mapping_store.cpp).
inline constexpr const char *kStoreOpen = "store.open";
inline constexpr const char *kStoreRead = "store.read";
inline constexpr const char *kStoreAppend = "store.append";
inline constexpr const char *kStoreFsync = "store.fsync";
inline constexpr const char *kStoreCompact = "store.compact";
inline constexpr const char *kStoreRename = "store.rename";
inline constexpr const char *kStoreUnlink = "store.unlink";

// Blocking socket plumbing (src/service/net.cpp) — used by the
// clients, the replication agent and the health monitor.
inline constexpr const char *kNetConnectPoll = "net.connect.poll";
inline constexpr const char *kNetPoll = "net.poll";
inline constexpr const char *kNetRecv = "net.recv";
inline constexpr const char *kNetSend = "net.send";

// Event-loop front end (src/service/server.cpp, poller.cpp).
inline constexpr const char *kServerAccept = "server.accept";
inline constexpr const char *kServerRecv = "server.recv";
inline constexpr const char *kServerSend = "server.send";
inline constexpr const char *kServerWakeRead = "server.wake.read";
inline constexpr const char *kServerEpollCreate = "server.epoll.create";
inline constexpr const char *kServerEpollCtl = "server.epoll.ctl";
inline constexpr const char *kServerEpollWait = "server.epoll.wait";
inline constexpr const char *kServerPollWait = "server.poll.wait";

// Cluster self-healing paths (src/cluster/health.cpp, hints.cpp,
// replication.cpp; inbound gate in the server dispatches). These are
// consulted through clusterFaultCheck() so MSE_FAULT_PEERS can arm
// them against a chosen peer subset — the chaos harness builds
// asymmetric partitions that way.
inline constexpr const char *kClusterProbe = "cluster.probe";
inline constexpr const char *kClusterShip = "cluster.ship";
inline constexpr const char *kClusterSync = "cluster.sync";
inline constexpr const char *kClusterHintAppend = "cluster.hint.append";
inline constexpr const char *kClusterHintRead = "cluster.hint.read";
inline constexpr const char *kClusterAccept = "cluster.accept";

/** Every site the seam consults, for tests and tooling. */
inline constexpr const char *kAllSites[] = {
    kStoreOpen,      kStoreRead,       kStoreAppend,       kStoreFsync,
    kStoreCompact,   kStoreRename,     kStoreUnlink,       kNetConnectPoll,
    kNetPoll,        kNetRecv,         kNetSend,           kServerAccept,
    kServerRecv,     kServerSend,      kServerWakeRead,    kServerEpollCreate,
    kServerEpollCtl, kServerEpollWait, kServerPollWait,    kClusterProbe,
    kClusterShip,    kClusterSync,     kClusterHintAppend, kClusterHintRead,
    kClusterAccept,
};

} // namespace fault_sites
} // namespace mse
