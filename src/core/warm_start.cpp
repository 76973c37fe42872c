#include "core/warm_start.hpp"

#include "common/permutation.hpp"

namespace mse {

const char *
warmStartStrategyName(WarmStartStrategy s)
{
    switch (s) {
      case WarmStartStrategy::None: return "random-init";
      case WarmStartStrategy::ByPrevious: return "warm-start-previous";
      case WarmStartStrategy::BySimilarity: return "warm-start-similarity";
    }
    return "unknown";
}

std::vector<Mapping>
warmStartSeeds(const MapSpace &space, const ReplayBuffer &buffer,
               WarmStartStrategy strategy, size_t count, Rng &rng)
{
    if (strategy == WarmStartStrategy::None || buffer.empty() ||
        count == 0) {
        return {};
    }
    const auto entry = strategy == WarmStartStrategy::BySimilarity
        ? buffer.mostSimilar(space.workload())
        : buffer.mostRecent(space.workload());
    if (!entry)
        return {};

    std::vector<Mapping> seeds;
    seeds.reserve(count);
    // First seed: the faithful re-scaled mapping (inherited order and
    // parallelism, scaled tiles). Later seeds keep the inherited tile
    // structure but randomize the loop orders so a mediocre inherited
    // order cannot trap the whole population on irregular workloads.
    const Mapping scaled =
        space.scaleFrom(entry->mapping, entry->workload, rng);
    seeds.push_back(scaled);
    for (size_t i = 1; i < count; ++i) {
        Mapping variant = scaled;
        for (int l = 0; l < variant.numLevels(); ++l) {
            randomPermutationInto(variant.level(l).order.data(),
                                  variant.numDims(), rng);
        }
        space.repair(variant);
        seeds.push_back(std::move(variant));
    }
    return seeds;
}

} // namespace mse
