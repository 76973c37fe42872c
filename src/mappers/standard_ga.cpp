#include "mappers/standard_ga.hpp"

#include <algorithm>

#include "common/permutation.hpp"

namespace mse {

SearchResult
StandardGaMapper::search(const MapSpace &space, const EvalFn &eval,
                         const SearchBudget &budget, Rng &rng)
{
    SearchTracker tracker(eval, budget);
    const size_t pop_size = std::max<size_t>(cfg_.population, 4);
    const int D = space.numDims();
    const int L = space.numLevels();

    struct Individual
    {
        Mapping mapping;
        double edp;
    };
    std::vector<Individual> pop;

    // Evaluate a batch as one call and move each evaluated candidate
    // into its Individual (the tracker may cut the batch short at the
    // sample budget); leaves `batch` empty for reuse.
    const auto evaluateInto = [&](std::vector<Mapping> &batch,
                                  std::vector<Individual> &into) {
        const auto &costs = tracker.evaluateBatch(batch);
        for (size_t i = 0; i < costs.size(); ++i)
            into.push_back({std::move(batch[i]), costs[i].edp});
        batch.clear();
    };

    // Batched initialization: candidates are drawn serially (fixed RNG
    // stream), evaluated in parallel, reduced in submission order.
    std::vector<Mapping> batch;
    batch.reserve(pop_size);
    while (batch.size() < pop_size)
        batch.push_back(space.randomMapping(rng));
    evaluateInto(batch, pop);
    tracker.endGeneration();
    if (pop.empty())
        return tracker.takeResult();

    const size_t elites = std::max<size_t>(
        1, static_cast<size_t>(cfg_.elite_fraction *
                               static_cast<double>(pop.size())));
    const size_t genes = static_cast<size_t>(D) * 2 * L; // factor slots

    std::vector<size_t> idx;
    std::vector<Individual> next;
    while (!tracker.exhausted()) {
        idx.resize(pop.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            return pop[a].edp < pop[b].edp;
        });

        auto parent = [&]() -> const Individual & {
            const size_t a = rng.index(pop.size());
            const size_t b = rng.index(pop.size());
            return pop[a].edp <= pop[b].edp ? pop[a] : pop[b];
        };

        // Elites survive; build the offspring generation, then
        // evaluate it as one batch.
        while (elites + batch.size() < pop_size) {
            const Individual &pa = parent();
            Mapping child = pa.mapping;
            if (rng.chance(cfg_.crossover_prob)) {
                // One-point crossover over the flattened factor slots;
                // all slots after the cut come from parent B. This can
                // split a dimension's tuple (repaired below).
                const Individual &pb = parent();
                const size_t cut = rng.index(genes);
                for (size_t g = cut; g < genes; ++g) {
                    const int d = static_cast<int>(g / (2 * L));
                    const int slot = static_cast<int>(g % (2 * L));
                    const int l = slot / 2;
                    if (slot % 2 == 0) {
                        child.level(l).temporal[d] =
                            pb.mapping.level(l).temporal[d];
                    } else {
                        child.level(l).spatial[d] =
                            pb.mapping.level(l).spatial[d];
                    }
                }
                // Orders after the (scaled) cut come from B too.
                for (int l = static_cast<int>(
                         (cut * L) / std::max<size_t>(genes, 1));
                     l < L; ++l) {
                    child.level(l).order = pb.mapping.level(l).order;
                }
            }
            // Uniform gene-reset mutation.
            for (size_t g = 0; g < genes; ++g) {
                if (!rng.chance(cfg_.mutation_prob))
                    continue;
                const int d = static_cast<int>(g / (2 * L));
                const int slot = static_cast<int>(g % (2 * L));
                const int l = slot / 2;
                const auto &divs = space.divisors(space.workload().bound(d));
                const int64_t v = divs[rng.index(divs.size())];
                if (slot % 2 == 0)
                    child.level(l).temporal[d] = v;
                else
                    child.level(l).spatial[d] = v;
            }
            for (int l = 0; l < L; ++l) {
                if (rng.chance(cfg_.mutation_prob))
                    randomPermutationInto(child.level(l).order.data(), D,
                                          rng);
            }
            // No domain repair: a standard GA decodes the genome as-is
            // and lets illegal offspring (broken factor products,
            // blown capacities) die with infinite fitness. This is the
            // handicap Gamma's per-axis operators avoid.
            batch.push_back(std::move(child));
        }
        // The parents are no longer read, so elites move, not copy.
        next.clear();
        for (size_t i = 0; i < elites; ++i)
            next.push_back(std::move(pop[idx[i]]));
        evaluateInto(batch, next);
        pop.swap(next);
        tracker.endGeneration();
    }
    return tracker.takeResult();
}

} // namespace mse
