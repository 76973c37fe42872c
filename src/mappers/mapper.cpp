#include "mappers/mapper.hpp"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.hpp"
#include "mappers/gamma.hpp"
#include "model/batch_eval.hpp"
#include "mappers/local_search.hpp"
#include "mappers/random_pruned.hpp"
#include "mappers/standard_ga.hpp"

namespace mse {

namespace {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace

MapperFactory
makeMapperFactory(const std::string &name)
{
    if (name == "gamma")
        return [] { return std::make_unique<GammaMapper>(); };
    if (name == "standard-ga")
        return [] { return std::make_unique<StandardGaMapper>(); };
    if (name == "random-pruned")
        return [] { return std::make_unique<RandomPrunedMapper>(); };
    if (name == "annealing")
        return [] { return std::make_unique<SimulatedAnnealingMapper>(); };
    if (name == "hill-climb")
        return [] { return std::make_unique<HillClimbMapper>(); };
    return {};
}

SearchTracker::SearchTracker(const EvalFn &eval, const SearchBudget &budget)
    : eval_(eval), budget_(budget), t0_(nowSeconds())
{
}

double
SearchTracker::elapsedSeconds() const
{
    return nowSeconds() - t0_;
}

bool
SearchTracker::exhausted() const
{
    if (log_.samples >= budget_.max_samples)
        return true;
    if (budget_.cancelRequested())
        return true;
    return elapsedSeconds() >= budget_.max_seconds;
}

void
SearchTracker::record(const Mapping &m, const CostResult &cost)
{
    record(m, cost, elapsedSeconds());
}

void
SearchTracker::record(const Mapping &m, const CostResult &cost,
                      double secs)
{
    ++log_.samples;
    if (cost.valid && cost.edp < best_edp_) {
        best_edp_ = cost.edp;
        best_mapping_ = m;
        best_cost_ = cost;
    }
    log_.best_edp_per_sample.push_back(best_edp_);
    log_.seconds_per_sample.push_back(secs);
}

const CostResult &
SearchTracker::evaluate(const Mapping &m)
{
    last_cost_ = eval_(m);
    record(m, last_cost_);
    return last_cost_;
}

const std::vector<CostResult> &
SearchTracker::evaluateBatch(const std::vector<Mapping> &batch)
{
    // Truncate to the remaining sample budget so batch-converted mappers
    // never overshoot max_samples; the candidate sequence (and thus the
    // caller's RNG stream) is unaffected by the truncation point.
    const size_t remaining = budget_.max_samples > log_.samples
        ? budget_.max_samples - log_.samples
        : 0;
    const size_t n = std::min(batch.size(), remaining);

    if (const BatchableEval *be = eval_.target<BatchableEval>()) {
        // Batch evaluator: hand the whole batch over in one call; it
        // fans out internally and writes every slot, so resize-without-
        // clearing reuses result capacity.
        batch_results_.resize(n);
        be->impl->evaluateBatch(batch.data(), nullptr, n,
                                batch_results_.data());
        const double secs = elapsedSeconds();
        for (size_t i = 0; i < n; ++i)
            record(batch[i], batch_results_[i], secs);
        if (n > 0)
            last_cost_ = batch_results_[n - 1];
        return batch_results_;
    }

    batch_results_.assign(n, CostResult{});

    ThreadPool &pool = ThreadPool::global();
    if (n > 1 && pool.threads() > 1) {
        pool.parallelFor(n, [&](size_t i) {
            batch_results_[i] = eval_(batch[i]);
        });
    } else {
        for (size_t i = 0; i < n; ++i)
            batch_results_[i] = eval_(batch[i]);
    }
    // Deterministic reduce in submission order.
    const double secs = elapsedSeconds();
    for (size_t i = 0; i < n; ++i)
        record(batch[i], batch_results_[i], secs);
    if (n > 0)
        last_cost_ = batch_results_[n - 1];
    return batch_results_;
}

void
SearchTracker::endGeneration()
{
    log_.best_edp_per_generation.push_back(best_edp_);
}

SearchResult
SearchTracker::takeResult()
{
    SearchResult res;
    res.best_mapping = best_mapping_;
    res.best_cost = best_cost_;
    res.log = std::move(log_);
    return res;
}

} // namespace mse
