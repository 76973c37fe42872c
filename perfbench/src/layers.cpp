#include "layers.hpp"

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "core/mse_engine.hpp"
#include "mapping/mapping_io.hpp"
#include "model/batch_eval.hpp"
#include "service/error_codes.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

using mse::CostResult;
using mse::Mapping;

/** The daemon's ServiceConfig defaults the replays must mirror. */
const mse::ServiceConfig kDaemonDefaults{};

std::string
freshStoreCopy(const Plan &plan, const std::string &dir, const char *tag)
{
    const std::string path = dir + "/inproc_" + tag + ".jsonl";
    std::filesystem::remove(path);
    if (!plan.store_file.empty())
        std::filesystem::copy_file(plan.store_file, path);
    return path;
}

bool
sameAnswer(const Mapping &m, double score, const Answer &a)
{
    return mse::serializeMapping(m) == a.mapping &&
        exact(score) == exact(a.score);
}

bool
sameCost(const CostResult &a, const CostResult &b)
{
    return a.valid == b.valid && (!a.valid || exact(a.edp) == exact(b.edp));
}

size_t
samplesOf(const mse::SearchRequest &r)
{
    return r.max_samples > 0 ? r.max_samples : kDaemonDefaults.default_samples;
}

/** The seed cost the service pushes into the replay buffer. */
CostResult
storedCost(const mse::StoreEntry &e)
{
    CostResult c;
    c.valid = true;
    c.edp = e.score;
    c.energy_uj = e.energy_uj;
    c.latency_cycles = e.latency_cycles;
    return c;
}

class Stage
{
  public:
    explicit Stage(double budget) : deadline_(now() + budget) {}
    bool open() const { return now() < deadline_; }

  private:
    double deadline_;
};

// --- 1. service --------------------------------------------------------

struct ServiceStage
{
    std::vector<double> queue_wait_ms;
    size_t queue_full = 0;
    size_t checked = 0;
};

ServiceStage
runService(const LayerInputs &in, Tracer &tr, double budget,
           std::vector<std::string> &errors)
{
    const Plan &plan = *in.plan;
    std::mutex mu;
    std::condition_variable cv;
    double ready = 0.0;

    // Declared after everything its completion hook touches, so it is
    // destroyed (executors joined) first.
    mse::ServiceConfig cfg;
    cfg.store_path = freshStoreCopy(plan, in.work_dir, "service");
    cfg.executors = kExecutors;
    mse::MseService svc(cfg);

    // One request in flight, like the daemon's traffic.
    ServiceStage out;
    const Stage stage(budget);
    for (const size_t index : in.replay) {
        if (!stage.open())
            break;
        mse::SearchRequest req = searchOf(plan.requests[index].line);
        {
            std::lock_guard<std::mutex> lk(mu);
            ready = 0.0;
        }
        const double submit = now();
        mse::MseService::Ticket ticket = svc.submit(std::move(req), [&] {
            const double t = now();
            {
                std::lock_guard<std::mutex> lk(mu);
                ready = t;
            }
            cv.notify_one();
        });
        const mse::SearchReply r = ticket.reply.get();
        double done = 0.0;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return ready > 0.0; });
            done = ready;
        }
        tr.add("service.submit_to_ready", submit, done, index);
        if (!r.ok) {
            if (r.error_code == mse::wire_errors::kQueueFull)
                ++out.queue_full;
            else
                errors.push_back("in-process service failed request " +
                                 std::to_string(index) + ": " +
                                 r.error_message);
            continue;
        }
        const Answer &a = in.answers->at(index);
        ++out.checked;
        if (r.mapping != a.mapping || exact(r.score) != exact(a.score))
            errors.push_back("in-process service disagrees with the "
                             "daemon on request " +
                             std::to_string(index));
        out.queue_wait_ms.push_back(((done - submit) - r.wall_seconds) *
                                    1e3);
    }
    return out;
}

// --- 2. decomposition --------------------------------------------------

struct Decomposed
{
    size_t index = 0;
    mse::SearchRequest req;
    mse::MappingStore::Lookup lookup;
    std::vector<Mapping> seeds; ///< warmStartSeeds' answer on a hit.
};

struct DecompStage
{
    std::vector<Decomposed> done;
    size_t seeds = 0, seeds_valid = 0;
    /** Wall time of each request's decomposition, with spans and with
     *  a disabled tracer, ms. */
    std::vector<double> traced_ms, untraced_ms;
};

/** One request through each layer's public call, in the daemon's
 *  order, with a span around each call. */
Decomposed
decompose(const LayerInputs &in, size_t index, mse::MappingStore &store,
          Tracer &tr, std::vector<std::string> &errors)
{
    const Answer &ans = in.answers->at(index);
    Decomposed d;
    d.index = index;
    Tracer::Scope rq(tr, "request", index);
    {
        Tracer::Scope s(tr, "wire.decode", index, rq.id());
        d.req = searchOf(in.plan->requests[index].line);
    }
    const mse::SearchRequest &r = d.req;
    if (r.warm_start) {
        Tracer::Scope s(tr, "mapping_store.lookup", index, rq.id());
        d.lookup = store.lookup(r.workload, r.arch, r.objective, r.sparse,
                                kDaemonDefaults.warm_max_distance);
    }
    if (mse::storeHitName(d.lookup.hit) != ans.store)
        errors.push_back("in-process store lookup of request " +
                         std::to_string(index) + " is " +
                         mse::storeHitName(d.lookup.hit) +
                         ", the daemon's was " + ans.store);
    const bool hit = d.lookup.hit != mse::StoreHit::Miss;
    if (hit) {
        const mse::MapSpace space(r.workload, r.arch);
        mse::ReplayBuffer rb;
        rb.push(d.lookup.entry.workload, d.lookup.entry.mapping,
                storedCost(d.lookup.entry));
        mse::Rng rng(r.seed);
        Tracer::Scope s(tr, "warm_start.seed", index, rq.id());
        d.seeds = mse::warmStartSeeds(space, rb,
                                      mse::WarmStartStrategy::BySimilarity,
                                      r.warm_seeds, rng);
    }
    if (!r.sparse) {
        Tracer::Scope s(tr, "mse_engine.plan_build", index, rq.id());
        const mse::BatchCostEvaluator plan_only(r.workload, r.arch);
    }
    mse::MseOutcome o;
    {
        Tracer::Scope s(tr, "mse_engine.optimize", index, rq.id());
        mse::MseEngine engine(r.arch);
        mse::MseOptions opts;
        opts.budget.max_samples = samplesOf(r);
        opts.objective = r.objective;
        opts.sparse = r.sparse;
        opts.update_replay = false;
        if (hit) {
            engine.replay().push(d.lookup.entry.workload,
                                 d.lookup.entry.mapping,
                                 storedCost(d.lookup.entry));
            opts.warm_start = mse::WarmStartStrategy::BySimilarity;
            opts.warm_seeds = r.warm_seeds;
        }
        mse::Rng rng(r.seed);
        const auto mapper = mse::makeMapperFactory(r.mapper)();
        o = engine.optimize(r.workload, *mapper, opts, rng);
    }
    if (!sameAnswer(o.search.best_mapping, o.search.best_cost.edp, ans))
        errors.push_back("in-process MseEngine::optimize disagrees with "
                         "the daemon on request " +
                         std::to_string(index));
    mse::SearchReply reply;
    reply.ok = true;
    reply.mapping = mse::serializeMapping(o.search.best_mapping);
    reply.score = o.search.best_cost.edp;
    reply.energy_uj = o.search.best_cost.energy_uj;
    reply.latency_cycles = o.search.best_cost.latency_cycles;
    reply.edp = reply.energy_uj * reply.latency_cycles;
    reply.samples = o.search.log.samples;
    reply.samples_to_converge = o.samples_to_converge;
    reply.samples_to_incumbent = o.samples_to_converge;
    reply.eval_cache_hits = o.eval_cache_hits;
    reply.eval_cache_misses = o.eval_cache_misses;
    reply.store_hit = d.lookup.hit;
    reply.warm_distance = d.lookup.distance;
    {
        Tracer::Scope s(tr, "mapping_store.record_noop", index, rq.id());
        if (store.recordIfBetter(r.workload, r.arch, r.objective, r.sparse,
                                 o.search.best_mapping, reply.score,
                                 reply.energy_uj, reply.latency_cycles,
                                 reply.samples))
            s.rename("mapping_store.append");
    }
    {
        Tracer::Scope s(tr, "wire.encode", index, rq.id());
        const std::string text = mse::searchReplyJson(reply).dump();
        if (text.empty())
            errors.push_back("empty encoded reply");
    }
    return d;
}

/**
 * Decompose the replayed requests twice, on two stores loaded from the
 * same file: once with spans and once with a disabled tracer. Both
 * stores see the same writes, so both passes do the same work; which
 * pass goes first alternates per request so neither always gets the
 * warmer caches.
 */
DecompStage
runDecomposition(const LayerInputs &in, Tracer &tr, double budget,
                 std::vector<std::string> &errors)
{
    const Plan &plan = *in.plan;
    mse::MappingStore store(freshStoreCopy(plan, in.work_dir, "store"));
    mse::MappingStore plain(
        freshStoreCopy(plan, in.work_dir, "store_untraced"));
    {
        Tracer::Scope s(tr, "mapping_store.load", 0);
        store.load();
    }
    plain.load();
    Tracer off(false);

    DecompStage out;
    const Stage stage(budget);
    for (const size_t index : in.replay) {
        if (!stage.open())
            break;
        const bool traced_first = out.done.size() % 2 == 0;
        for (int pass = 0; pass < 2; ++pass) {
            const bool traced = (pass == 0) == traced_first;
            const double t0 = now();
            Decomposed d = decompose(in, index, traced ? store : plain,
                                     traced ? tr : off, errors);
            const double ms = (now() - t0) * 1e3;
            (traced ? out.traced_ms : out.untraced_ms).push_back(ms);
            if (traced)
                out.done.push_back(std::move(d));
        }
        for (const Mapping &m : out.done.back().seeds) {
            ++out.seeds;
            out.seeds_valid += scalarCost(out.done.back().req, m).valid;
        }
    }
    return out;
}

// --- 3. search replays -------------------------------------------------

struct ReplayStage
{
    size_t requests = 0;
    size_t samples = 0, valid = 0;
    size_t batch_evals = 0, hits = 0, misses = 0;
    std::vector<double> store_entries;
    double pool_s = 0.0, inline_s = 0.0;
    size_t soa_evals = 0;
    double soa_s = 0.0;
    size_t sparse_evals = 0;
    double sparse_s = 0.0;
};

/** Everything a search needs besides its evaluator, rebuilt per pass so
 *  both passes consume the RNG identically. */
struct SearchSetup
{
    std::unique_ptr<mse::Mapper> mapper;
    mse::Rng rng;
    mse::SearchBudget budget;
};

SearchSetup
setupSearch(const Decomposed &d, const mse::MapSpace &space)
{
    const mse::SearchRequest &r = d.req;
    SearchSetup s{mse::makeMapperFactory(r.mapper)(), mse::Rng(r.seed), {}};
    s.budget.max_samples = samplesOf(r);
    mse::ReplayBuffer rb;
    mse::WarmStartStrategy strategy = mse::WarmStartStrategy::None;
    if (d.lookup.hit != mse::StoreHit::Miss) {
        rb.push(d.lookup.entry.workload, d.lookup.entry.mapping,
                storedCost(d.lookup.entry));
        strategy = mse::WarmStartStrategy::BySimilarity;
    }
    s.mapper->setInitialMappings(
        mse::warmStartSeeds(space, rb, strategy, r.warm_seeds, s.rng));
    return s;
}

ReplayStage
runReplays(const LayerInputs &in, const DecompStage &dec, Tracer &tr,
           double budget, std::vector<std::string> &errors)
{
    ReplayStage out;
    const Stage stage(budget);
    for (const Decomposed &d : dec.done) {
        if (!stage.open())
            break;
        const mse::SearchRequest &r = d.req;
        const Answer &ans = in.answers->at(d.index);
        const mse::MapSpace space(r.workload, r.arch);
        const auto fail = [&](const char *what) {
            errors.push_back(std::string(what) + " on request " +
                             std::to_string(d.index));
        };

        // Record: every candidate and its cost, in evaluation order
        // (inline, so the order is the submission order).
        std::vector<Mapping> cands;
        std::vector<CostResult> costs;
        mse::SearchResult recorded;
        {
            const mse::ThreadPool::ScopedInline inline_scope;
            const mse::EvalFn rec = [&](const Mapping &m) {
                cands.push_back(m);
                costs.push_back(scalarCost(r, m));
                return costs.back();
            };
            SearchSetup s = setupSearch(d, space);
            Tracer::Scope span(tr, "mappers.record", d.index);
            recorded = s.mapper->search(space, rec, s.budget, s.rng);
        }
        if (!sameAnswer(recorded.best_mapping, recorded.best_cost.edp, ans)) {
            fail("recorded Mapper::search disagrees with the daemon");
            continue;
        }
        // Replay: the same search answered from the recording.
        {
            const mse::ThreadPool::ScopedInline inline_scope;
            size_t k = 0;
            const mse::EvalFn replay = [&](const Mapping &) {
                return k < costs.size() ? costs[k++] : CostResult{};
            };
            SearchSetup s = setupSearch(d, space);
            mse::SearchResult again;
            {
                Tracer::Scope span(tr, "mappers.search", d.index);
                again = s.mapper->search(space, replay, s.budget, s.rng);
            }
            if (k != costs.size() ||
                !sameAnswer(again.best_mapping, again.best_cost.edp, ans))
                fail("replayed Mapper::search diverged");
        }
        ++out.requests;
        out.samples += costs.size();
        for (const CostResult &c : costs)
            out.valid += c.valid ? 1 : 0;

        if (r.sparse) {
            const mse::SparseCostModel model;
            std::vector<CostResult> sc(cands.size());
            const double t0 = now();
            {
                Tracer::Scope span(tr, "sparse_model.evaluate", d.index);
                for (size_t i = 0; i < cands.size(); ++i)
                    sc[i] = model.evaluate(r.workload, r.arch, cands[i]);
            }
            out.sparse_s += now() - t0;
            out.sparse_evals += cands.size();
            for (size_t i = 0; i < cands.size(); ++i)
                if (!sameCost(sc[i], costs[i])) {
                    fail("SparseCostModel::evaluate replay differs");
                    break;
                }
            continue;
        }

        // Generation batches: evaluateBatch stamps one timestamp on a
        // whole batch, so runs of equal timestamps are the batches.
        std::vector<std::pair<size_t, size_t>> batches;
        const std::vector<double> &ts = recorded.log.seconds_per_sample;
        for (size_t i = 0; i < ts.size();) {
            size_t j = i + 1;
            while (j < ts.size() && ts[j] == ts[i])
                ++j;
            batches.emplace_back(i, j - i);
            i = j;
        }
        const auto runBatches = [&](const char *name, bool inline_eval) {
            std::optional<mse::ThreadPool::ScopedInline> inline_scope;
            if (inline_eval)
                inline_scope.emplace();
            mse::BatchCostEvaluator ev(r.workload, r.arch);
            std::vector<CostResult> got(cands.size());
            const double t0 = now();
            {
                Tracer::Scope span(tr, name, d.index);
                for (const auto &[b0, n] : batches)
                    ev.evaluateBatch(&cands[b0], nullptr, n, &got[b0]);
            }
            const double dt = now() - t0;
            for (size_t i = 0; i < cands.size(); ++i)
                if (!sameCost(got[i], costs[i])) {
                    fail("BatchCostEvaluator::evaluateBatch replay differs");
                    break;
                }
            if (!inline_eval) {
                out.hits += ev.cacheHits();
                out.misses += ev.cacheMisses();
                out.store_entries.push_back(
                    static_cast<double>(ev.storeSize()));
            }
            return dt;
        };
        out.pool_s += runBatches("batch_eval.pool", false);
        out.inline_s += runBatches("batch_eval.inline", true);
        out.batch_evals += cands.size();

        // SoA kernel over the distinct candidates, 128 at a time.
        std::vector<Mapping> distinct;
        std::vector<CostResult> want;
        std::unordered_set<std::string> seen;
        for (size_t i = 0; i < cands.size(); ++i)
            if (seen.insert(mse::serializeMapping(cands[i])).second) {
                distinct.push_back(cands[i]);
                want.push_back(costs[i]);
            }
        const mse::BatchCostEvaluator plan_holder(r.workload, r.arch);
        std::vector<CostResult> got(distinct.size());
        const double t0 = now();
        {
            Tracer::Scope span(tr, "soa_kernel.evaluate", d.index);
            for (size_t i = 0; i < distinct.size(); i += 128) {
                const size_t n = std::min<size_t>(128, distinct.size() - i);
                mse::evaluateBatchSoA(
                    plan_holder.plan(),
                    std::span<const Mapping>(distinct.data() + i, n),
                    std::span<CostResult>(got.data() + i, n));
            }
        }
        out.soa_s += now() - t0;
        out.soa_evals += distinct.size();
        for (size_t i = 0; i < distinct.size(); ++i)
            if (!sameCost(got[i], want[i])) {
                fail("evaluateBatchSoA replay differs");
                break;
            }
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

std::vector<Metric>
runLayers(const LayerInputs &in, Tracer &tr, std::vector<std::string> &notes,
          std::vector<std::string> &errors)
{
    mse::ThreadPool::setGlobalThreads(static_cast<unsigned>(kPoolThreads));
    const double share = in.budget_s / 3.0;

    const ServiceStage svc = runService(in, tr, share, errors);
    const DecompStage dec = runDecomposition(in, tr, share, errors);
    mse::ThreadPool::setGlobalThreads(static_cast<unsigned>(in.nproc));
    const ReplayStage rep = runReplays(in, dec, tr, share, errors);

    std::vector<Metric> m;
    const auto add = [&](const char *name, double value, const char *unit) {
        m.push_back({name, value, unit});
    };
    const auto us = [&](const char *span) {
        return median(tr.durations(span)) * 1e6;
    };
    const auto missing = [&](const char *name, const char *why) {
        notes.push_back(std::string(name) + " unavailable: " + why);
    };

    add("service.queue_wait_ms", median(svc.queue_wait_ms), "ms");
    add("service.queue_wait_tail_ms", tailOf(svc.queue_wait_ms).value,
        "ms");
    if (svc.queue_full > 0)
        notes.push_back("in-process service rejected " +
                        std::to_string(svc.queue_full) +
                        " requests with queue_full");

    add("wire.decode_us", us("wire.decode"), "us");
    add("wire.encode_us", us("wire.encode"), "us");

    const std::vector<double> lookups = tr.durations("mapping_store.lookup");
    if (lookups.empty())
        missing("mapping_store.lookup_us", "no request reads the store");
    add("mapping_store.lookup_us", median(lookups) * 1e6, "us");
    add("mapping_store.lookup_tail_us", tailOf(lookups).value * 1e6, "us");
    const std::vector<double> appends =
        tr.durations("mapping_store.append");
    if (appends.empty())
        missing("mapping_store.append_us", "no store write appended");
    add("mapping_store.append_us", median(appends) * 1e6, "us");
    add("mapping_store.load_s", median(tr.durations("mapping_store.load")),
        "s");

    if (dec.seeds == 0)
        missing("warm_start.seed_us", "no warm-started request");
    add("warm_start.seed_us", us("warm_start.seed"), "us");
    add("warm_start.seed_valid_ratio",
        ratio(static_cast<double>(dec.seeds_valid),
              static_cast<double>(dec.seeds)),
        "ratio");

    const double traced_s = sum(dec.traced_ms) / 1e3;
    const double untraced_s = sum(dec.untraced_ms) / 1e3;
    std::printf("decomposition of %zu requests: untraced %.3f s (p50 "
                "%.3f ms), traced %.3f s (p50 %.3f ms)\n",
                dec.done.size(), untraced_s, median(dec.untraced_ms),
                traced_s, median(dec.traced_ms));
    add("tracing.overhead_ratio", ratio(traced_s, untraced_s), "ratio");

    add("mse_engine.optimize_ms", us("mse_engine.optimize") / 1e3, "ms");
    add("mse_engine.plan_build_us", us("mse_engine.plan_build"), "us");

    add("mappers.self_ms", median(tr.selfTimes("mappers.search")) * 1e3,
        "ms");
    add("mappers.valid_ratio",
        ratio(static_cast<double>(rep.valid),
              static_cast<double>(rep.samples)),
        "ratio");

    if (rep.batch_evals == 0)
        missing("batch_eval.*", "no dense request was replayed");
    add("batch_eval.evals_per_s",
        ratio(static_cast<double>(rep.batch_evals), rep.pool_s), "1/s");
    add("batch_eval.memo_hit_ratio",
        ratio(static_cast<double>(rep.hits),
              static_cast<double>(rep.hits + rep.misses)),
        "ratio");
    add("batch_eval.store_entries", mean(rep.store_entries), "count");
    add("soa_kernel.evals_per_s",
        ratio(static_cast<double>(rep.soa_evals), rep.soa_s), "1/s");
    add("thread_pool.batch_speedup", ratio(rep.inline_s, rep.pool_s),
        "ratio");
    if (rep.sparse_evals == 0)
        missing("sparse_model.evals_per_s", "no sparse request replayed");
    add("sparse_model.evals_per_s",
        ratio(static_cast<double>(rep.sparse_evals), rep.sparse_s), "1/s");

    notes.push_back("in-process checks: service " +
                    std::to_string(svc.checked) + ", decomposition " +
                    std::to_string(dec.done.size()) + ", search replays " +
                    std::to_string(rep.requests) + " requests");
    return m;
}

} // namespace perfbench
