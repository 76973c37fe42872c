#include "mappers/gamma.hpp"

#include <algorithm>

#include "common/math_util.hpp"
#include "common/pareto.hpp"

namespace mse {

void
GammaMapper::mutateTile(const MapSpace &space, Mapping &m, Rng &rng)
{
    const int D = m.numDims();
    const int L = m.numLevels();
    // Pick a dimension with something to move; a handful of tries keeps
    // the operator cheap for workloads with many unit bounds.
    for (int attempt = 0; attempt < 8; ++attempt) {
        const int d = static_cast<int>(rng.index(D));
        if (space.workload().bound(d) <= 1)
            continue;
        const int src = static_cast<int>(rng.index(L));
        if (m.level(src).temporal[d] <= 1)
            continue;
        int dst = static_cast<int>(rng.index(L));
        if (dst == src)
            dst = (dst + 1) % L;
        const auto &divs = space.divisors(m.level(src).temporal[d]);
        // Skip the trivial divisor 1 (divs[0]).
        const int64_t g = divs[1 + rng.index(divs.size() - 1)];
        m.level(src).temporal[d] /= g;
        m.level(dst).temporal[d] *= g;
        return;
    }
}

void
GammaMapper::mutateOrder(Mapping &m, Rng &rng)
{
    const int D = m.numDims();
    if (D < 2)
        return;
    const int l = static_cast<int>(rng.index(m.numLevels()));
    const size_t i = rng.index(D);
    size_t j = rng.index(D);
    if (i == j)
        j = (j + 1) % D;
    std::swap(m.level(l).order[i], m.level(l).order[j]);
}

void
GammaMapper::mutateParallel(const MapSpace &space, Mapping &m, Rng &rng)
{
    const std::vector<int> &levels = space.spatialLevels();
    if (levels.empty())
        return;
    const int l = levels[rng.index(levels.size())];
    const int D = m.numDims();
    const int64_t fanout = space.arch().levels[l].fanout;

    for (int attempt = 0; attempt < 8; ++attempt) {
        const int d = static_cast<int>(rng.index(D));
        if (rng.chance(0.5)) {
            // Grow parallelism of d out of its temporal loop.
            if (m.level(l).temporal[d] <= 1)
                continue;
            const auto &divs = space.divisors(m.level(l).temporal[d]);
            const int64_t g = divs[1 + rng.index(divs.size() - 1)];
            if (m.spatialProduct(l) * g > fanout)
                continue;
            m.level(l).temporal[d] /= g;
            m.level(l).spatial[d] *= g;
        } else {
            // Shrink parallelism of d back into its temporal loop.
            if (m.level(l).spatial[d] <= 1)
                continue;
            const auto &divs = space.divisors(m.level(l).spatial[d]);
            const int64_t g = divs[1 + rng.index(divs.size() - 1)];
            m.level(l).spatial[d] /= g;
            m.level(l).temporal[d] *= g;
        }
        return;
    }
}

void
GammaMapper::mutateBypass(const MapSpace &space, Mapping &m, Rng &rng)
{
    // Flip one tensor's residency at one non-DRAM level. DRAM must keep
    // everything (validateMapping enforces it), so it is never touched.
    const int L = m.numLevels();
    if (L < 2)
        return;
    const int num_tensors = space.workload().numTensors();
    const int l = static_cast<int>(rng.index(L - 1));
    const int t = static_cast<int>(rng.index(num_tensors));
    m.setKeep(l, t, !m.keeps(l, t), num_tensors);
}

Mapping
GammaMapper::crossover(const Mapping &a, const Mapping &b, Rng &rng)
{
    // Each coin flip indexes the parent to copy from instead of
    // branching on it: a branch on a fair coin mispredicts half the time.
    const Mapping *parents[2] = {&a, &b};
    Mapping child = a;
    // Whole per-dimension factor columns from either parent keep each
    // dimension's factor product intact.
    for (int d = 0; d < child.numDims(); ++d)
        child.copyFactorColumn(d, *parents[rng.chance(0.5)]);
    // Orders and bypass directives travel together per level.
    for (int l = 0; l < child.numLevels(); ++l) {
        const Mapping &src = *parents[rng.chance(0.5)];
        child.level(l).order = src.level(l).order;
        child.level(l).keep = src.level(l).keep;
    }
    return child;
}

SearchResult
GammaMapper::search(const MapSpace &space, const EvalFn &eval,
                    const SearchBudget &budget, Rng &rng)
{
    SearchTracker tracker(eval, budget);
    const size_t pop_size = std::max<size_t>(cfg_.population, 4);

    // A survivor keeps only the cost fields selection reads.
    struct Individual
    {
        Mapping mapping;
        double energy_uj;
        double latency_cycles;
        double edp;
    };
    std::vector<Individual> pop;
    pop.reserve(pop_size);

    // Evaluate a batch as one call and move each evaluated candidate
    // into its Individual (the tracker may cut the batch short at the
    // sample budget); leaves `batch` empty for reuse.
    const auto evaluateInto = [&](std::vector<Mapping> &batch,
                                  std::vector<Individual> &into) {
        const auto &costs = tracker.evaluateBatch(batch);
        for (size_t i = 0; i < costs.size(); ++i) {
            into.push_back({std::move(batch[i]), costs[i].energy_uj,
                            costs[i].latency_cycles, costs[i].edp});
        }
        batch.clear();
    };

    // Initial population: warm-start seeds first, random fill. The whole
    // generation is built up front and evaluated as one batch; candidate
    // construction stays on this thread so the RNG stream is identical
    // at any thread count.
    std::vector<Mapping> batch;
    batch.reserve(pop_size);
    for (const auto &seed : seeds_) {
        if (batch.size() >= pop_size)
            break;
        Mapping m = seed;
        space.repair(m);
        batch.push_back(std::move(m));
    }
    while (batch.size() < pop_size)
        batch.push_back(space.randomMapping(rng));
    evaluateInto(batch, pop);
    tracker.endGeneration();
    if (pop.empty())
        return tracker.takeResult();

    const size_t elites =
        std::max<size_t>(1, static_cast<size_t>(
                                cfg_.elite_fraction *
                                static_cast<double>(pop.size())));

    std::vector<size_t> idx;
    std::vector<int> ranks;
    std::vector<ObjectivePoint> pts;
    std::vector<Individual> next;
    next.reserve(pop.size());
    while (!tracker.exhausted()) {
        // Rank the population: nondominated rank, EDP tiebreak.
        idx.resize(pop.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        if (cfg_.multi_objective) {
            pts.clear();
            for (const auto &ind : pop)
                pts.push_back({ind.energy_uj, ind.latency_cycles});
            ranks = paretoRanks(pts);
        } else {
            ranks.assign(pop.size(), 0);
        }
        std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
            if (ranks[x] != ranks[y])
                return ranks[x] < ranks[y];
            return pop[x].edp < pop[y].edp;
        });

        auto tournament = [&]() -> const Individual & {
            const size_t a = idx[rng.index(std::max<size_t>(
                pop.size() / 2, 1))];
            const size_t b = idx[rng.index(pop.size())];
            return pop[a].edp <= pop[b].edp ? pop[a] : pop[b];
        };

        // Elites survive; the rest are replaced by offspring. Build the
        // whole offspring generation, then evaluate it as one batch
        // (reduced in submission order by the tracker).
        while (elites + batch.size() < pop.size()) {
            if (rng.chance(cfg_.random_immigrant_prob)) {
                batch.push_back(space.randomMapping(rng));
                continue;
            }
            const Individual &pa = tournament();
            Mapping child;
            if (cfg_.enable_crossover && rng.chance(cfg_.crossover_prob)) {
                const Individual &pb = tournament();
                child = crossover(pa.mapping, pb.mapping, rng);
            } else {
                child = pa.mapping;
            }
            if (cfg_.enable_tile && rng.chance(cfg_.mutate_tile_prob))
                mutateTile(space, child, rng);
            if (cfg_.enable_order && rng.chance(cfg_.mutate_order_prob))
                mutateOrder(child, rng);
            if (cfg_.enable_parallel &&
                rng.chance(cfg_.mutate_parallel_prob)) {
                mutateParallel(space, child, rng);
            }
            if (cfg_.enable_bypass &&
                rng.chance(cfg_.mutate_bypass_prob)) {
                mutateBypass(space, child, rng);
            }
            space.repair(child);
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
