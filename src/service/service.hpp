/**
 * @file
 * MseService: the embeddable mapping-search service.
 *
 * The engine stack (ThreadPool / MseEngine / ModelSweep) was only
 * reachable through one-shot bench binaries; every caller paid
 * cold-start search cost and nothing persisted. MseService wraps that
 * stack in a long-lived request loop:
 *
 *  - a *bounded request queue* feeding a pool of N executor workers
 *    (ServiceConfig::executors; MseService::defaultExecutors() resolves
 *    the daemon's MSE_EXECUTORS knob). With one executor the search
 *    fans its batched cost-model queries across ThreadPool::global();
 *    with N > 1 each worker wraps its search in
 *    ThreadPool::ScopedInline so evaluation runs serially on that
 *    worker's lane — N concurrent searches instead of one parallel
 *    one, without breaking the pool's one-top-level-caller contract.
 *    Either way per-request results are bit-identical (the pool-size
 *    determinism contract: inline == pool of 1). Submitters get a
 *    future; a full queue rejects immediately with a structured
 *    `queue_full` error.
 *  - *per-request deadlines*: a request carries an absolute deadline
 *    from the moment it is accepted. Expired while queued -> a
 *    `deadline_exceeded` error without burning any search samples.
 *    Expiring mid-search caps the search's wall-clock budget, so the
 *    reply still carries the best-so-far mapping, flagged `timed_out`.
 *  - *cancellation*: every ticket exposes a CancelToken. A dropped
 *    client cancels its token; the running search observes it at the
 *    next generation boundary and stops burning pool threads.
 *  - *store warm-start*: each search consults the persistent
 *    MappingStore. An exact (workload, arch, objective) hit or a near
 *    same-arch neighbor seeds the search via the replay-buffer /
 *    MapSpace::scaleFrom machinery (Sec. 5.1); improvements are
 *    written back, so the store monotonically accumulates the best
 *    known mapping per key across runs and clients.
 *  - *metrics*: every request updates the shared ServiceMetrics
 *    (queue depth, latency percentiles, store hit split, eval-cache
 *    totals), served by statsJson() and dumped on shutdown.
 *
 * Determinism: a request with an explicit seed produces bit-identical
 * results to a direct MseEngine::optimize run with the same options at
 * any MSE_THREADS — the service adds no randomness and no extra
 * cost-model queries (store seeding rides the standard warm-start
 * path, which only alters the mapper's initial population).
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_annotations.hpp"
#include "core/mse_engine.hpp"
#include "core/objective.hpp"
#include "service/mapping_store.hpp"

namespace mse {

/** Service-level configuration. */
struct ServiceConfig
{
    /** Backing file of the mapping store; empty = in-memory only. */
    std::string store_path;

    /** Maximum queued (not yet running) requests. */
    size_t queue_capacity = 64;

    /** Deadline for requests that don't set one, seconds. */
    double default_deadline_seconds = 300.0;

    /** Maximum store distance for a near warm-start (BoundRatio
     *  units: total |log2| bound drift across dimensions). */
    double warm_max_distance = 8.0;

    /** Sample budget for requests that don't set one. */
    size_t default_samples = 2000;

    /** Write improved mappings back to the store. */
    bool store_writeback = true;

    /** fsync every store append (durable against machine crash, not
     *  just process death; costs throughput). */
    bool store_fsync = false;

    /**
     * retry_after_ms hint attached to retryable rejections
     * (queue_full, shutting_down): how long a well-behaved client
     * should back off before resubmitting.
     */
    int retry_hint_ms = 1000;

    /**
     * Executor workers draining the queue (clamped to [1, 64]). The
     * library default stays 1 (single deterministic drain order, the
     * behavior every embedded caller had before); the daemon resolves
     * its default via MseService::defaultExecutors() (MSE_EXECUTORS
     * env, else hardware_concurrency). Per-request *results* are
     * bit-identical at any value; cross-request *interleaving* (store
     * warm-hit timing, queue order) is concurrent at N > 1.
     */
    size_t executors = 1;
};

/** One mapping-search request. */
struct SearchRequest
{
    Workload workload;
    ArchConfig arch;
    std::string mapper = "gamma";
    Objective objective = Objective::Edp;

    /** 0 = service default budget. */
    size_t max_samples = 0;

    /** Explicit RNG seed; when unset the seed derives from the layer
     *  signature, so identical requests replay identically. */
    uint64_t seed = 0;
    bool seed_set = false;

    /** Consult the mapping store for a warm start. */
    bool warm_start = true;

    /** Warm-seed copies injected into the initial population. */
    size_t warm_seeds = 2;

    /** Use the sparse cost model (densities off the workload). */
    bool sparse = false;

    /** Per-request deadline in seconds; 0 = service default. */
    double deadline_seconds = 0.0;
};

/** Reply to one search request. */
struct SearchReply
{
    bool ok = false;
    std::string error_code;    ///< Set when !ok.
    std::string error_message;

    /** For retryable errors (queue_full, shutting_down): suggested
     *  client backoff before resubmitting; 0 = not retryable. */
    int retry_after_ms = 0;

    /** For wrong_shard rejections: the daemon that owns the key, so a
     *  routing client can retry against it in one hop. */
    std::string error_owner;

    std::string mapping;       ///< serializeMapping() of the best.
    double score = 0.0;        ///< Objective score of the best.
    double edp = 0.0;
    double energy_uj = 0.0;
    double latency_cycles = 0.0;
    size_t samples = 0;
    size_t samples_to_converge = 0;

    /** Samples spent reaching incumbent quality: for a store-warmed
     *  search, the first sample whose best-so-far matched the stored
     *  score; cold, same as samples_to_converge. The warm-start win
     *  (paper Sec. 5.1) shows up as this collapsing on warm hits. */
    size_t samples_to_incumbent = 0;
    size_t eval_cache_hits = 0;
    size_t eval_cache_misses = 0;

    StoreHit store_hit = StoreHit::Miss;
    double warm_distance = -1.0;
    bool store_improved = false; ///< This run improved the stored best.

    bool timed_out = false;  ///< Deadline expired mid-search.
    bool cancelled = false;  ///< Token fired mid-search.
    double wall_seconds = 0.0;

    /** Cluster observability (empty outside a cluster): the daemon
     *  that ran the search and the store key the result lives under. */
    std::string served_by;
    std::string store_key;
};

/** Embeddable mapping-search service. */
class MseService
{
  public:
    explicit MseService(ServiceConfig cfg = {});
    ~MseService();

    MseService(const MseService &) = delete;
    MseService &operator=(const MseService &) = delete;

    /** Handle to an accepted request. */
    struct Ticket
    {
        std::future<SearchReply> reply;
        CancelTokenPtr cancel; ///< Fire to abandon the request.
    };

    /**
     * Completion hook for event-driven callers: invoked exactly once
     * per submit, *after* the ticket's future is ready. Fires on an
     * executor thread for queued requests and synchronously inside
     * submit() for immediate rejections, so the caller must tolerate
     * both (the event server just enqueues a wakeup either way). Must
     * not block and must not call back into MseService.
     */
    using CompletionFn = std::function<void()>;

    /**
     * Enqueue a request. Always returns a ticket; rejected requests
     * (full queue, unknown mapper, malformed workload/arch, stopping
     * service) come back as an already-completed future carrying a
     * structured error reply (on_complete still fires, synchronously).
     */
    Ticket submit(SearchRequest req,
                  CompletionFn on_complete = nullptr) EXCLUDES(mu_);

    /** Resolved executor-worker count. */
    size_t executors() const { return n_executors_; }

    /**
     * The daemon-side default executor count: MSE_EXECUTORS env, else
     * hardware_concurrency, either one clamped to [1, 64]. Library
     * users get ServiceConfig's explicit default (1) unless they opt
     * in.
     */
    static size_t defaultExecutors();

    /**
     * defaultExecutors() as a pure function of the env value (null =
     * unset) and the hardware concurrency `hw` (0 = unknown). An env
     * value that parses as an integer wins; otherwise `hw` is used.
     */
    static size_t defaultExecutors(const char *env, unsigned hw);

    /** Synchronous convenience: submit and wait. */
    SearchReply search(SearchRequest req) EXCLUDES(mu_);

    /**
     * Stop the executor. drain = finish queued requests first; without
     * drain, queued requests fail with `shutting_down` and the running
     * one is cancelled. Idempotent; called by the destructor (drain).
     */
    void stop(bool drain = true) EXCLUDES(mu_);

    /** Stats snapshot: metrics + store + uptime (the `stats` reply). */
    /** Counters, latency histogram, store/queue state. The `queue`
     *  block (depth, running) is a live snapshot — ops dashboards and
     *  tests can watch executor occupancy without racing it. */
    JsonValue statsJson() const EXCLUDES(mu_);

    /**
     * Seams the cluster layer plugs into. MseService itself knows
     * nothing about rings or peers (src/service must not depend on
     * src/cluster); the daemon wires these from its ClusterConfig.
     * Every hook may be null. Not thread-safe: set before the first
     * submit()/statsJson() and never change afterwards.
     */
    struct ClusterHooks
    {
        /** This daemon's advertised address, stamped into replies. */
        std::string self;

        /** False = this shard neither owns nor replicates the key:
         *  submit() rejects with wrong_shard instead of queueing. */
        std::function<bool(const std::string &key)> accepts_key;

        /** Ring owner of a key (for the wrong_shard error payload). */
        std::function<std::string(const std::string &key)> owner_of;

        /** A local search improved the stored best: hand the record
         *  to the replication agent. Called on an executor thread
         *  after the store write; must not block. */
        std::function<void(const StoreEntry &e)> on_improved;

        /** Extend the statsJson() document (replication lag, peer
         *  queue depths). */
        std::function<void(JsonValue &stats)> augment_stats;
    };

    void setClusterHooks(ClusterHooks hooks) { hooks_ = std::move(hooks); }

    /**
     * Merge records replicated from a peer into the local store
     * (best-score-wins per key; see MappingStore::mergeEntry). Keys
     * outside this shard's replica set are merged too — during a
     * topology change, dropping data is strictly worse than holding a
     * stale copy. Merges never re-trigger on_improved (only local
     * search improvements do), so replication cannot loop.
     * Returns {merged, ignored}.
     */
    std::pair<size_t, size_t>
    applyReplication(const std::vector<StoreEntry> &entries);

    /**
     * Anti-entropy responder: the live records a peer advertising
     * `digest` (its per-key best scores) is missing or losing on,
     * capped at max_entries (0 = unlimited). Pure read — the caller
     * merges our records via its own applyReplication, so a sync
     * round can only flow data one way and cannot loop.
     */
    std::vector<StoreEntry> syncEntries(
        const std::vector<std::pair<std::string, double>> &digest,
        size_t max_entries) const;

    MappingStore &store() { return store_; }
    const ServiceConfig &config() const { return cfg_; }
    ServiceMetrics &metrics() { return metrics_; }

  private:
    struct Pending
    {
        SearchRequest req;
        std::promise<SearchReply> promise;
        CancelTokenPtr cancel;
        CompletionFn on_complete; ///< Fired after the promise is set.
        double deadline_abs = 0.0; ///< steady-clock seconds.
    };

    void executorLoop() EXCLUDES(mu_);
    /** Set the reply, then fire the completion hook. */
    static void finish(Pending &p, SearchReply reply);
    SearchReply runSearch(const SearchRequest &req,
                          const CancelTokenPtr &cancel,
                          double deadline_abs);

    ServiceConfig cfg_;
    MappingStore store_;   ///< Internally synchronized.
    ServiceMetrics metrics_; ///< Internally synchronized.
    double start_time_ = 0.0; ///< Immutable after construction.
    ClusterHooks hooks_;   ///< Immutable after setClusterHooks().

    mutable Mutex mu_; ///< mutable: statsJson() is logically const.
    std::condition_variable queue_cv_;
    std::deque<std::unique_ptr<Pending>> queue_ GUARDED_BY(mu_);
    bool stopping_ GUARDED_BY(mu_) = false;
    bool drain_on_stop_ GUARDED_BY(mu_) = true;
    /** Tokens of the in-flight searches (one slot per busy executor);
     *  a non-drain stop cancels all of them. */
    std::vector<CancelTokenPtr> running_ GUARDED_BY(mu_);

    /** Degraded-store transition already counted in metrics (any
     *  executor can observe the transition first). */
    std::atomic<bool> store_degraded_noted_{false};
    size_t n_executors_ = 1; ///< Immutable after construction.
    std::vector<std::thread> executors_;
};

} // namespace mse
