/**
 * @file
 * mse_serve: the mapping-search daemon.
 *
 * Listens on 127.0.0.1 for line-delimited-JSON requests (see
 * src/service/wire.hpp for the protocol), runs searches on the shared
 * engine stack, and persists best-known mappings to the store file.
 * Prints "LISTENING <port>" on stdout once ready (so scripts can grab
 * an ephemeral port), serves until SIGINT/SIGTERM, then drains and
 * dumps final stats to stderr.
 *
 * Cluster mode (--self + --peers): N daemons share one logical store
 * via consistent-hash sharding. This daemon serves only the keys it
 * owns or replicates (anything else is rejected with a wrong_shard
 * redirect), and ships its local store improvements to each key's
 * ring successors in the background (see src/cluster/). Self-healing
 * rides on top: a health monitor probes every peer, Down peers get
 * hinted handoff instead of live shipping, and an anti-entropy sync
 * round fires at startup (the rejoin pull) and whenever a peer climbs
 * back to Up.
 *
 * Usage:
 *   mse_serve [--port N] [--store FILE] [--samples N]
 *             [--deadline-s S] [--queue N] [--executors N]
 *             [--max-conns N]
 *             [--self HOST:PORT --peers H:P,H:P,... [--replicas R]]
 *             [--probe-interval-ms N] [--down-after N]
 */
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "cluster/health.hpp"
#include "cluster/replication.hpp"
#include "service/server.hpp"

namespace {

// Written by the signal handler, read by the main wait loop.
// `volatile sig_atomic_t` is the only object type the C++ standard
// guarantees a signal handler may write (glibc additionally makes the
// store atomic with respect to the polling read in main()).
volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onSignal(int)
{
    // Async-signal-safety contract: this handler runs at arbitrary
    // points, possibly mid-malloc or mid-printf on the interrupted
    // thread. It must therefore touch nothing but g_stop and call
    // only async-signal-safe functions (_Exit is on that list;
    // printf/fprintf/exit and anything that locks or allocates are
    // not). The graceful drain — server.stop(), stats dump — happens
    // in main(), outside signal context.
    if (g_stop) {
        // Second SIGINT/SIGTERM: the drain is stuck (or the operator
        // is impatient). Hard-exit without running atexit handlers or
        // flushing stdio; 130 = 128 + SIGINT, the conventional
        // killed-by-signal status.
        std::_Exit(130);
    }
    g_stop = 1;
}

void
installSignalHandlers()
{
    // sigaction over std::signal: defined semantics for the handler's
    // disposition after delivery (no SysV reset-to-default race) and
    // explicit SA_RESTART, so the server's blocking accept()/read()
    // calls on other threads are restarted rather than failing with
    // EINTR mid-request.
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--store FILE] [--samples N]\n"
        "          [--deadline-s S] [--queue N] [--fsync]\n"
        "          [--executors N] [--max-conns N]\n"
        "  --port N        listen port on 127.0.0.1 (default: "
        "ephemeral)\n"
        "  --store FILE    mapping-store backing file (default: "
        "in-memory)\n"
        "  --samples N     default per-request sample budget\n"
        "  --deadline-s S  default per-request deadline, seconds\n"
        "  --queue N       request queue capacity\n"
        "  --fsync         fsync every store append (durable vs "
        "machine crash)\n"
        "  --executors N   search worker threads (default: "
        "MSE_EXECUTORS\n"
        "                  env, else hardware concurrency); "
        "per-request\n"
        "                  results are bit-identical at any value\n"
        "  --max-conns N   concurrent connection cap (default: 32)\n"
        "cluster mode:\n"
        "  --self H:P      this daemon's advertised address (must "
        "match\n"
        "                  --port; enables sharding + replication)\n"
        "  --peers LIST    comma-separated peer addresses\n"
        "  --replicas R    copies of each key incl. the owner "
        "(default 2)\n"
        "  --probe-interval-ms N  peer health probe period "
        "(default 500)\n"
        "  --down-after N  consecutive failed probes before a peer "
        "is\n"
        "                  marked Down (default 3)\n"
        "env: MSE_FAULTS=\"site:spec,...\" arms deterministic fault\n"
        "injection (see src/common/fault_injection.hpp);\n"
        "MSE_FAULT_PEERS=H:P,... limits cluster.* fault sites to "
        "those\npeers; "
        "MSE_EVENT_BACKEND=poll forces the poll(2) readiness "
        "backend\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    mse::ServiceConfig svc_cfg;
    mse::ServerConfig srv_cfg;
    std::string cluster_self;
    std::string cluster_peers;
    size_t cluster_replicas = 2;
    mse::HealthConfig health_cfg;
    // The daemon (not the library) resolves the executor default, so
    // embedded/test uses of MseService stay single-executor unless
    // they opt in.
    svc_cfg.executors = mse::MseService::defaultExecutors();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--port" && val) {
            srv_cfg.port = static_cast<uint16_t>(std::atoi(val));
            ++i;
        } else if (arg == "--store" && val) {
            svc_cfg.store_path = val;
            ++i;
        } else if (arg == "--samples" && val) {
            svc_cfg.default_samples =
                static_cast<size_t>(std::atoll(val));
            ++i;
        } else if (arg == "--deadline-s" && val) {
            svc_cfg.default_deadline_seconds = std::atof(val);
            ++i;
        } else if (arg == "--queue" && val) {
            svc_cfg.queue_capacity =
                static_cast<size_t>(std::atoll(val));
            ++i;
        } else if (arg == "--fsync") {
            svc_cfg.store_fsync = true;
        } else if (arg == "--executors" && val) {
            svc_cfg.executors = static_cast<size_t>(
                std::max<long long>(1, std::atoll(val)));
            ++i;
        } else if (arg == "--max-conns" && val) {
            srv_cfg.max_connections = static_cast<size_t>(
                std::max<long long>(1, std::atoll(val)));
            ++i;
        } else if (arg == "--self" && val) {
            cluster_self = val;
            ++i;
        } else if (arg == "--peers" && val) {
            cluster_peers = val;
            ++i;
        } else if (arg == "--replicas" && val) {
            cluster_replicas = static_cast<size_t>(
                std::max<long long>(1, std::atoll(val)));
            ++i;
        } else if (arg == "--probe-interval-ms" && val) {
            health_cfg.probe_interval_ms =
                std::max(1, std::atoi(val));
            ++i;
        } else if (arg == "--down-after" && val) {
            health_cfg.down_after = std::max(1, std::atoi(val));
            ++i;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    // Cluster topology, validated before anything starts listening.
    mse::ClusterConfig cluster;
    const bool cluster_mode =
        !cluster_self.empty() || !cluster_peers.empty();
    if (cluster_mode) {
        if (cluster_self.empty() || cluster_peers.empty()) {
            std::fprintf(stderr,
                         "mse_serve: cluster mode needs both --self "
                         "and --peers\n");
            return 2;
        }
        std::string self_host;
        uint16_t self_port = 0;
        if (!mse::splitHostPort(cluster_self, &self_host,
                                &self_port)) {
            std::fprintf(stderr,
                         "mse_serve: --self wants HOST:PORT, got "
                         "'%s'\n",
                         cluster_self.c_str());
            return 2;
        }
        if (srv_cfg.port == 0) {
            srv_cfg.port = self_port; // --self implies the listen port
        } else if (srv_cfg.port != self_port) {
            std::fprintf(stderr,
                         "mse_serve: --port %u contradicts --self "
                         "%s (peers would route to the wrong "
                         "place)\n",
                         srv_cfg.port, cluster_self.c_str());
            return 2;
        }
        cluster.self = cluster_self;
        cluster.nodes = mse::splitNodeList(cluster_peers);
        cluster.nodes.push_back(cluster_self);
        cluster.replication = cluster_replicas;
    }

    // Declaration order is the reverse of teardown: the monitor
    // outlives the agent (workers read healthOf), the agent outlives
    // the service (executors call enqueue via on_improved). The
    // cross-calls that point the other way — the monitor's transition
    // callback into the agent, the agent's digest/apply hooks into
    // the service — are quiesced by the explicit stop sequence below
    // (server, monitor, agent) before any of them is destroyed.
    std::unique_ptr<mse::HealthMonitor> monitor;
    std::unique_ptr<mse::ReplicationAgent> agent;
    mse::MseService service(svc_cfg);
    if (cluster_mode) {
        monitor =
            std::make_unique<mse::HealthMonitor>(cluster, health_cfg);
        mse::HealthMonitor *monitor_ptr = monitor.get();

        mse::ReplicationConfig rcfg;
        if (!svc_cfg.store_path.empty())
            rcfg.hint_path_prefix = svc_cfg.store_path + ".";
        mse::ReplicationHooks rhooks;
        rhooks.health_of = [monitor_ptr](const std::string &addr) {
            return monitor_ptr->healthOf(addr);
        };
        mse::MseService *svc_ptr = &service;
        rhooks.local_digest = [svc_ptr]() {
            return svc_ptr->store().bestScores();
        };
        rhooks.apply_entries =
            [svc_ptr](const std::vector<mse::StoreEntry> &entries) {
                return svc_ptr->applyReplication(entries).first;
            };
        agent = std::make_unique<mse::ReplicationAgent>(
            cluster, rcfg, std::move(rhooks));
        mse::ReplicationAgent *agent_ptr = agent.get();

        // A peer that climbed back to Up missed everything shipped
        // while it was gone only if *we* were also down — but the
        // reverse pull is what heals *us* after a partition, so both
        // sides sync on recovery. Cheap when already converged: the
        // digest exchange ships nothing.
        monitor->setOnTransition(
            [agent_ptr](const std::string &addr, mse::PeerHealth,
                        mse::PeerHealth to) {
                if (to == mse::PeerHealth::Up)
                    agent_ptr->requestSync(addr);
            });

        mse::MseService::ClusterHooks hooks;
        hooks.self = cluster_self;
        const mse::ShardRing ring = cluster.ring();
        const size_t reps = cluster.replicationClamped();
        const std::string self = cluster_self;
        hooks.accepts_key = [ring, self,
                             reps](const std::string &key) {
            return ring.isReplica(key, self, reps);
        };
        hooks.owner_of = [ring](const std::string &key) {
            return ring.ownerOf(key);
        };
        hooks.on_improved = [agent_ptr](const mse::StoreEntry &e) {
            agent_ptr->enqueue(e);
        };
        hooks.augment_stats = [agent_ptr,
                               monitor_ptr](mse::JsonValue &j) {
            j["replication"] = agent_ptr->statsJson();
            j["health"] = monitor_ptr->statsJson();
        };
        service.setClusterHooks(std::move(hooks));
    }
    mse::ServiceServer server(service, srv_cfg);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "mse_serve: %s\n", err.c_str());
        // Quiesce the cross-calling threads in order before the
        // destructors run (see the declaration-order comment).
        if (monitor)
            monitor->stop();
        if (agent)
            agent->stop();
        return 1;
    }
    if (cluster_mode) {
        monitor->start();
        // The rejoin pull: ask every peer for records this daemon
        // missed while it was down (a no-op digest exchange when the
        // store is already converged).
        agent->requestSyncAll();
    }

    installSignalHandlers();

    std::printf("LISTENING %u\n", server.port());
    std::fflush(stdout);
    std::fprintf(stderr, "backend: event, executors: %zu\n",
                 service.executors());
    if (!service.store().path().empty()) {
        std::fprintf(stderr, "store: %s (%zu entries)\n",
                     service.store().path().c_str(),
                     service.store().size());
    }
    if (cluster_mode) {
        std::fprintf(stderr,
                     "cluster: self=%s nodes=%zu replicas=%zu\n",
                     cluster.self.c_str(), cluster.nodes.size(),
                     cluster.replicationClamped());
    }

    while (!g_stop && !server.stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::fprintf(stderr, "shutting down...\n");
    server.stop(); // Joins connections, drains the queue.
    if (monitor)
        monitor->stop(); // No more transition callbacks into the agent.
    if (agent)
        agent->stop(); // After the drain: last improvements ship too.
    std::fprintf(stderr, "%s\n", service.statsJson().dump(2).c_str());
    return 0;
}
