#include "service/service.hpp"

#include <chrono>
#include <cstdlib>

#include "common/fault_injection.hpp"
#include "common/math_util.hpp"
#include "common/thread_pool.hpp"
#include "core/model_sweep.hpp"
#include "mapping/mapping_io.hpp"
#include "service/error_codes.hpp"

namespace mse {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

SearchReply
errorReply(const char *code, const std::string &message,
           int retry_after_ms = 0)
{
    SearchReply r;
    r.ok = false;
    r.error_code = code;
    r.error_message = message;
    r.retry_after_ms = retry_after_ms;
    return r;
}

/** A ticket whose future is already satisfied with `reply`. */
MseService::Ticket
immediateTicket(SearchReply reply)
{
    std::promise<SearchReply> p;
    MseService::Ticket t;
    t.reply = p.get_future();
    t.cancel = std::make_shared<CancelToken>();
    p.set_value(std::move(reply));
    return t;
}

} // namespace

size_t
MseService::defaultExecutors()
{
    // getenv is safe here: nothing in this process calls
    // setenv/putenv after main() starts.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    return defaultExecutors(std::getenv("MSE_EXECUTORS"),
                            std::thread::hardware_concurrency());
}

size_t
MseService::defaultExecutors(const char *env, unsigned hw)
{
    long v = static_cast<long>(hw);
    if (env) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env)
            v = parsed;
    }
    return static_cast<size_t>(v < 1 ? 1 : v > 64 ? 64 : v);
}

MseService::MseService(ServiceConfig cfg)
    : cfg_(std::move(cfg)), store_(cfg_.store_path, cfg_.store_fsync),
      start_time_(nowSeconds())
{
    n_executors_ = cfg_.executors < 1 ? 1
        : cfg_.executors > 64        ? 64
                                     : cfg_.executors;
    executors_.reserve(n_executors_);
    for (size_t i = 0; i < n_executors_; ++i)
        executors_.emplace_back([this] { executorLoop(); });
}

MseService::~MseService()
{
    stop(true);
    store_.compact();
}

MseService::Ticket
MseService::submit(SearchRequest req, CompletionFn on_complete)
{
    metrics_.onRequest("search");

    // Rejections resolve the future before returning, so the
    // completion hook can fire synchronously right here — the
    // "after the future is ready" contract holds on both paths.
    const auto reject = [&](SearchReply reply) {
        Ticket t = immediateTicket(std::move(reply));
        if (on_complete)
            on_complete();
        return t;
    };

    // Validate before queueing so bad requests fail fast and never
    // occupy a queue slot.
    if (req.workload.numDims() <= 0 ||
        req.workload.numTensors() <= 0) {
        metrics_.onError(wire_errors::kBadWorkload);
        return reject(
            errorReply(wire_errors::kBadWorkload, "workload has no dimensions"));
    }
    if (req.arch.numLevels() <= 0) {
        metrics_.onError(wire_errors::kBadArch);
        return reject(
            errorReply(wire_errors::kBadArch, "arch has no storage levels"));
    }
    if (!makeMapperFactory(req.mapper)) {
        metrics_.onError(wire_errors::kUnknownMapper);
        return reject(errorReply(
            wire_errors::kUnknownMapper, "no mapper named '" + req.mapper + "'"));
    }
    if (hooks_.accepts_key) {
        const std::string key = MappingStore::keyOf(
            req.workload, req.arch, req.objective, req.sparse);
        if (!hooks_.accepts_key(key)) {
            metrics_.onError(wire_errors::kWrongShard);
            SearchReply r = errorReply(
                wire_errors::kWrongShard,
                "key " + key + " is not served by this shard");
            if (hooks_.owner_of)
                r.error_owner = hooks_.owner_of(key);
            return reject(std::move(r));
        }
    }

    auto pending = std::make_unique<Pending>();
    pending->req = std::move(req);
    pending->cancel = std::make_shared<CancelToken>();
    pending->on_complete = std::move(on_complete);
    const double deadline = pending->req.deadline_seconds > 0.0
        ? pending->req.deadline_seconds
        : cfg_.default_deadline_seconds;
    pending->deadline_abs = nowSeconds() + deadline;

    Ticket t;
    t.reply = pending->promise.get_future();
    t.cancel = pending->cancel;
    {
        MutexLock lk(mu_);
        if (stopping_) {
            metrics_.onError(wire_errors::kShuttingDown);
            on_complete = std::move(pending->on_complete);
            return reject(
                errorReply(wire_errors::kShuttingDown, "service is draining",
                           cfg_.retry_hint_ms));
        }
        if (queue_.size() >= cfg_.queue_capacity) {
            metrics_.onRejectQueueFull();
            on_complete = std::move(pending->on_complete);
            return reject(errorReply(
                wire_errors::kQueueFull,
                "request queue is at capacity (" +
                    std::to_string(cfg_.queue_capacity) + ")",
                cfg_.retry_hint_ms));
        }
        queue_.push_back(std::move(pending));
        metrics_.onEnqueue();
    }
    queue_cv_.notify_one();
    return t;
}

SearchReply
MseService::search(SearchRequest req)
{
    return submit(std::move(req)).reply.get();
}

void
MseService::finish(Pending &p, SearchReply reply)
{
    p.promise.set_value(std::move(reply));
    if (p.on_complete)
        p.on_complete();
}

void
MseService::executorLoop()
{
    while (true) {
        std::unique_ptr<Pending> pending;
        std::vector<std::unique_ptr<Pending>> abandoned;
        {
            MutexUniqueLock lk(mu_);
            // Explicit wait loop: guarded reads stay in this scope for
            // the thread-safety analysis (lambdas lose lock state).
            while (!stopping_ && queue_.empty())
                queue_cv_.wait(lk.native());
            if (stopping_ && (!drain_on_stop_ || queue_.empty())) {
                // Abandon what's left (non-drain stop only); replies
                // and completion hooks fire outside the lock.
                abandoned.reserve(queue_.size());
                for (auto &p : queue_)
                    abandoned.push_back(std::move(p));
                queue_.clear();
            } else {
                if (queue_.empty())
                    continue;
                pending = std::move(queue_.front());
                queue_.pop_front();
                running_.push_back(pending->cancel);
            }
        }
        if (!pending) {
            for (auto &p : abandoned)
                finish(*p, errorReply(wire_errors::kShuttingDown,
                                      "service stopped"));
            return;
        }
        metrics_.onDequeue();

        SearchReply reply;
        if (pending->cancel->cancelled()) {
            reply = errorReply(wire_errors::kCancelled,
                               "request cancelled while queued");
            metrics_.onError(wire_errors::kCancelled);
        } else if (nowSeconds() >= pending->deadline_abs) {
            reply = errorReply(wire_errors::kDeadlineExceeded,
                               "deadline expired while queued");
            metrics_.onError(wire_errors::kDeadlineExceeded);
        } else if (n_executors_ > 1) {
            // N concurrent searches must not each claim the global
            // pool (one-top-level-caller contract): pin this worker's
            // evaluation inline on its own lane. Bit-identical by the
            // pool-size determinism contract.
            ThreadPool::ScopedInline inline_scope;
            reply = runSearch(pending->req, pending->cancel,
                              pending->deadline_abs);
        } else {
            reply = runSearch(pending->req, pending->cancel,
                              pending->deadline_abs);
        }
        {
            MutexLock lk(mu_);
            for (auto it = running_.begin(); it != running_.end(); ++it) {
                if (*it == pending->cancel) {
                    running_.erase(it);
                    break;
                }
            }
        }
        finish(*pending, std::move(reply));
    }
}

SearchReply
MseService::runSearch(const SearchRequest &req,
                      const CancelTokenPtr &cancel, double deadline_abs)
{
    const double t0 = nowSeconds();

    MseEngine engine(req.arch);
    MseOptions opts;
    opts.budget.max_samples =
        req.max_samples > 0 ? req.max_samples : cfg_.default_samples;
    opts.budget.max_seconds = deadline_abs - t0;
    opts.budget.cancel = cancel;
    opts.objective = req.objective;
    opts.sparse = req.sparse;
    opts.update_replay = false;
    opts.warm_start = WarmStartStrategy::None;

    // Store warm-start: seed the engine's replay buffer with the best
    // known mapping for this key (or its nearest same-arch neighbor);
    // warmStartSeeds then re-scales it into this map space via
    // MapSpace::scaleFrom (Sec. 5.1.2).
    MappingStore::Lookup lk;
    if (req.warm_start) {
        lk = store_.lookup(req.workload, req.arch, req.objective,
                           req.sparse, cfg_.warm_max_distance);
        if (lk.hit != StoreHit::Miss) {
            CostResult seed_cost;
            seed_cost.valid = true;
            seed_cost.edp = lk.entry.score;
            seed_cost.energy_uj = lk.entry.energy_uj;
            seed_cost.latency_cycles = lk.entry.latency_cycles;
            engine.replay().push(lk.entry.workload, lk.entry.mapping,
                                 seed_cost);
            opts.warm_start = WarmStartStrategy::BySimilarity;
            opts.warm_seeds = req.warm_seeds;
        }
    }

    const uint64_t seed = req.seed_set
        ? req.seed
        : fnv1a64(layerSignature(req.workload, req.arch));
    Rng rng(seed);
    const auto mapper = makeMapperFactory(req.mapper)();
    const MseOutcome outcome =
        engine.optimize(req.workload, *mapper, opts, rng);

    SearchReply r;
    r.wall_seconds = nowSeconds() - t0;
    // Cluster observability only: outside a cluster both fields stay
    // empty and off the wire (single-daemon replies are unchanged).
    if (!hooks_.self.empty()) {
        r.served_by = hooks_.self;
        r.store_key = MappingStore::keyOf(req.workload, req.arch,
                                          req.objective, req.sparse);
    }
    r.store_hit = lk.hit;
    r.warm_distance = lk.distance;
    r.samples = outcome.search.log.samples;
    r.samples_to_converge = outcome.samples_to_converge;
    r.samples_to_incumbent = r.samples_to_converge;
    if (lk.hit != StoreHit::Miss) {
        // How fast did the search reach the stored incumbent's quality?
        const auto &trace = outcome.search.log.best_edp_per_sample;
        const double target = lk.entry.score * (1.0 + 1e-9);
        r.samples_to_incumbent = outcome.search.log.samples;
        for (size_t i = 0; i < trace.size(); ++i) {
            if (trace[i] <= target) {
                r.samples_to_incumbent = i + 1;
                break;
            }
        }
    }
    r.eval_cache_hits = outcome.eval_cache_hits;
    r.eval_cache_misses = outcome.eval_cache_misses;
    r.cancelled = cancel->cancelled();
    r.timed_out = !r.cancelled && nowSeconds() >= deadline_abs;

    if (!outcome.search.found()) {
        r.ok = false;
        if (r.cancelled) {
            r.error_code = wire_errors::kCancelled;
            r.error_message = "cancelled before any valid mapping";
        } else if (r.timed_out) {
            r.error_code = wire_errors::kDeadlineExceeded;
            r.error_message = "deadline before any valid mapping";
        } else {
            r.error_code = wire_errors::kNoValidMapping;
            r.error_message =
                "search budget exhausted without a legal mapping";
        }
    } else {
        r.ok = true;
        r.mapping = serializeMapping(outcome.search.best_mapping);
        r.score = outcome.search.best_cost.edp;
        r.edp = outcome.search.best_cost.energy_uj *
            outcome.search.best_cost.latency_cycles;
        r.energy_uj = outcome.search.best_cost.energy_uj;
        r.latency_cycles = outcome.search.best_cost.latency_cycles;
        if (cfg_.store_writeback) {
            r.store_improved = store_.recordIfBetter(
                req.workload, req.arch, req.objective, req.sparse,
                outcome.search.best_mapping, r.score, r.energy_uj,
                r.latency_cycles, r.samples);
        }
        // Replication fires only on *local* improvements — merges via
        // applyReplication never re-enter here, so a record cannot
        // bounce between peers.
        if (r.store_improved && hooks_.on_improved) {
            StoreEntry e;
            e.workload = req.workload;
            e.arch_sig = fnv1a64Hex(req.arch.signature());
            e.objective = req.objective;
            e.sparse = req.sparse;
            e.mapping = outcome.search.best_mapping;
            e.score = r.score;
            e.energy_uj = r.energy_uj;
            e.latency_cycles = r.latency_cycles;
            e.samples = r.samples;
            hooks_.on_improved(e);
        }
    }

    // Degraded-store transition (disk append failed, store went
    // read-only): count it once — exchange() arbitrates when several
    // executors observe the transition together. The service keeps
    // answering; cold and in-memory-warm searches don't need the disk.
    if (store_.degraded() && !store_degraded_noted_.exchange(true))
        metrics_.onStoreDegraded();

    ServiceMetrics::SearchSample sample;
    sample.latency_seconds = r.wall_seconds;
    sample.store_kind = lk.hit == StoreHit::Exact ? 2
        : lk.hit == StoreHit::Near                ? 1
                                                  : 0;
    sample.store_improved = r.store_improved;
    sample.timed_out = r.timed_out;
    sample.cancelled = r.cancelled;
    sample.samples = r.samples;
    sample.eval_cache_hits = r.eval_cache_hits;
    sample.eval_cache_misses = r.eval_cache_misses;
    metrics_.onSearchDone(sample);
    if (!r.ok)
        metrics_.onError(r.error_code.c_str());
    return r;
}

std::pair<size_t, size_t>
MseService::applyReplication(const std::vector<StoreEntry> &entries)
{
    size_t merged = 0;
    for (const StoreEntry &e : entries)
        if (store_.mergeEntry(e))
            ++merged;
    const size_t ignored = entries.size() - merged;
    metrics_.onReplicate(merged, ignored);
    if (store_.degraded() && !store_degraded_noted_.exchange(true))
        metrics_.onStoreDegraded();
    return {merged, ignored};
}

std::vector<StoreEntry>
MseService::syncEntries(
    const std::vector<std::pair<std::string, double>> &digest,
    size_t max_entries) const
{
    return store_.entriesBetterThan(digest, max_entries);
}

void
MseService::stop(bool drain)
{
    bool joinable = false;
    for (auto &t : executors_)
        joinable = joinable || t.joinable();
    {
        MutexLock lk(mu_);
        if (stopping_ && !joinable)
            return;
        stopping_ = true;
        drain_on_stop_ = drain;
        if (!drain) {
            for (auto &c : running_)
                c->requestCancel();
        }
    }
    queue_cv_.notify_all();
    for (auto &t : executors_)
        if (t.joinable())
            t.join();
}

JsonValue
MseService::statsJson() const
{
    JsonValue j = metrics_.toJson();
    j["uptime_s"] = nowSeconds() - start_time_;
    JsonValue &store = j["store"]; // extends the hit-split block
    store["entries"] = store_.size();
    store["path"] = store_.path().empty() ? "(in-memory)"
                                          : store_.path();
    store["malformed_lines_skipped"] = store_.malformedLines();
    store["superseded_lines"] = store_.deadLines();
    store["degraded"] = store_.degraded();
    store["append_failures"] = store_.appendFailures();
    {
        // Per-key accepted-record counts (sorted): which shards of the
        // key space this daemon is actually serving — the cluster
        // harness reads this to verify ring placement.
        JsonValue &per_key = store["per_key"];
        per_key = JsonValue::object();
        for (const auto &kv : store_.keyAppendCounts())
            per_key[kv.first] = kv.second;
    }
    const FaultInjector &faults = FaultInjector::global();
    if (faults.armed()) {
        // Make injected-fault runs self-identifying in dashboards and
        // harness logs: a degraded store with faults armed is a test,
        // without them an incident.
        JsonValue &f = j["faults"];
        f["armed"] = true;
        f["injected_total"] = faults.totalInjected();
    }
    {
        MutexLock lock(mu_);
        JsonValue &q = j["queue"];
        q["depth"] = queue_.size();
        q["running"] = running_.size();
    }
    JsonValue &cfg = j["config"];
    cfg["executors"] = n_executors_;
    cfg["queue_capacity"] = cfg_.queue_capacity;
    cfg["default_deadline_seconds"] = cfg_.default_deadline_seconds;
    cfg["default_samples"] = cfg_.default_samples;
    cfg["warm_max_distance"] = cfg_.warm_max_distance;
    cfg["store_writeback"] = cfg_.store_writeback;
    if (!hooks_.self.empty())
        j["self"] = hooks_.self;
    if (hooks_.augment_stats)
        hooks_.augment_stats(j);
    return j;
}

} // namespace mse
