#include "mappers/random_pruned.hpp"

namespace mse {

SearchResult
RandomPrunedMapper::search(const MapSpace &space, const EvalFn &eval,
                           const SearchBudget &budget, Rng &rng)
{
    SearchTracker tracker(eval, budget);
    std::unordered_set<std::string> seen;
    // Bound the number of consecutive duplicate draws so tiny map spaces
    // cannot spin forever.
    const int max_consecutive_dupes = 256;
    int dupes = 0;
    // Draw candidates serially (dedupe and the RNG stream stay on this
    // thread), evaluate them in parallel chunks. The chunk size bounds
    // how far sampling can run ahead of the sample budget.
    const size_t chunk = 64;
    bool space_drained = false;
    while (!tracker.exhausted() && !space_drained) {
        std::vector<Mapping> batch;
        batch.reserve(chunk);
        while (batch.size() < chunk) {
            Mapping m = space.randomMapping(rng);
            if (dedupe_) {
                auto [it, inserted] = seen.insert(m.canonicalKey());
                (void)it;
                if (!inserted) {
                    if (++dupes >= max_consecutive_dupes) {
                        space_drained = true;
                        break;
                    }
                    continue;
                }
                dupes = 0;
            }
            batch.push_back(std::move(m));
        }
        tracker.evaluateBatch(batch);
    }
    tracker.endGeneration();
    return tracker.takeResult();
}

} // namespace mse
