#include "model/cost_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mse {

namespace {

/**
 * Truncated iteration product at one storage level: the product of
 * temporal loop factors from the outermost loop down to (and including)
 * the innermost loop that is relevant to tensor t, skipping factor-1
 * loops. 1 if no relevant loop iterates at this level.
 */
double
truncatedIterations(const Workload &wl, const ConstLevelMapping &lvl,
                    int t)
{
    const int D = static_cast<int>(lvl.order.size());
    int innermost_relevant = -1;
    for (int j = D - 1; j >= 0; --j) {
        const int d = lvl.order[j];
        if (lvl.temporal[d] > 1 && wl.isRelevant(t, d)) {
            innermost_relevant = j;
            break;
        }
    }
    if (innermost_relevant < 0)
        return 1.0;
    double prod = 1.0;
    for (int j = 0; j <= innermost_relevant; ++j)
        prod *= static_cast<double>(lvl.temporal[lvl.order[j]]);
    return prod;
}

/** Product of spatial factors at level l over dims relevant to t. */
double
relevantSpatial(const Workload &wl, const ConstLevelMapping &lvl, int t)
{
    double prod = 1.0;
    for (size_t d = 0; d < lvl.spatial.size(); ++d) {
        if (wl.isRelevant(t, static_cast<int>(d)))
            prod *= static_cast<double>(lvl.spatial[d]);
    }
    return prod;
}

} // namespace

AccessCounts
computeAccessCounts(const Workload &wl, const ArchConfig &arch,
                    const Mapping &m)
{
    const int L = arch.numLevels();
    const int T = wl.numTensors();
    const int out = wl.outputTensor();

    AccessCounts counts;
    counts.access.assign(L, std::vector<TensorLevelAccess>(T));
    counts.macs = wl.totalMacs();
    counts.active_alus = 1.0;
    for (int l = 0; l < L; ++l)
        counts.active_alus *= static_cast<double>(m.spatialProduct(l));

    // Per-level caches.
    std::vector<double> sp_prod(L), ai(L + 1, 1.0);
    for (int l = 0; l < L; ++l)
        sp_prod[l] = static_cast<double>(m.spatialProduct(l));
    for (int l = L - 1; l >= 0; --l)
        ai[l] = ai[l + 1] * (l + 1 < L ? sp_prod[l + 1] : 1.0);
    // ai[l] = active instances of level l (product of spatial products
    // strictly above l).

    for (int t = 0; t < T; ++t) {
        // Deliveries of one child-instance tile along a fixed instance
        // path, per level: tcnt[l] = prod_{l' >= l} C(l', t).
        std::vector<double> tcnt(L + 1, 1.0);
        for (int l = L - 1; l >= 0; --l)
            tcnt[l] = tcnt[l + 1] * truncatedIterations(wl, m.level(l), t);

        std::vector<double> rel_sp(L);
        for (int l = 0; l < L; ++l)
            rel_sp[l] = relevantSpatial(wl, m.level(l), t);

        // The storage chain of this tensor: the virtual compute node
        // (-1, footprint 1 word) followed by every level that keeps the
        // tensor. Bypassed levels are skipped: data streams directly
        // between the adjacent keeping levels, paying the combined
        // spatial fanout of everything in between.
        std::vector<int> chain = {-1};
        for (int l = 0; l < L; ++l) {
            if (m.keeps(l, t))
                chain.push_back(l);
        }

        auto footprint_at = [&](int l) {
            return l < 0 ? 1.0 : tileFootprint(wl, m, t, l);
        };
        // Deliveries (in words, machine-aggregate) from parent p into
        // child c across the chain link (c, p].
        auto link_words = [&](int c, int p) {
            double rel = 1.0;
            for (int l = c + 1; l <= p; ++l)
                rel *= rel_sp[l];
            return tcnt[c + 1] * footprint_at(c) * rel * ai[p];
        };

        if (t != out) {
            for (size_t i = 0; i + 1 < chain.size(); ++i) {
                const int c = chain[i], p = chain[i + 1];
                // Reads out of the parent (multicast: distinct words
                // only); fills into the child fan out to every active
                // receiving instance.
                counts.access[p][t].reads += link_words(c, p);
                if (c >= 0) {
                    counts.access[c][t].writes +=
                        tcnt[c + 1] * footprint_at(c) * ai[c];
                }
            }
        } else {
            const double vol_out = wl.tensorVolume(t);
            for (size_t i = 0; i + 1 < chain.size(); ++i) {
                const int c = chain[i], p = chain[i + 1];
                const double w = link_words(c, p);
                // Partial sums ascend into the parent...
                counts.access[p][t].writes += w;
                // ...non-final deliveries are read back down later
                // (read-modify-write), and ascending data is read out
                // of the child.
                counts.access[p][t].reads += std::max(0.0, w - vol_out);
                if (c >= 0)
                    counts.access[c][t].reads += w;
            }
        }
    }
    return counts;
}

CostResult
CostModel::fold(const Workload &wl, const ArchConfig &arch, const Mapping &m,
                const AccessCounts &counts)
{
    const int L = arch.numLevels();
    CostResult res;
    res.valid = true;
    res.error = MappingError::Ok;
    res.macs = counts.macs;
    res.compute_cycles = counts.macs / std::max(counts.active_alus, 1.0);
    res.utilization = counts.active_alus /
        static_cast<double>(arch.totalComputeUnits());

    res.level_energy_uj.assign(L, 0.0);
    res.level_cycles.assign(L, 0.0);

    std::vector<double> sp_prod(L), ai(L + 1, 1.0);
    for (int l = 0; l < L; ++l)
        sp_prod[l] = static_cast<double>(m.spatialProduct(l));
    for (int l = L - 1; l >= 0; --l)
        ai[l] = ai[l + 1] * (l + 1 < L ? sp_prod[l + 1] : 1.0);

    double energy_pj = counts.macs * arch.mac_energy_pj;
    double bound_cycles = res.compute_cycles;
    for (int l = 0; l < L; ++l) {
        const auto &lvl = arch.levels[l];
        double reads = 0.0, writes = 0.0;
        for (int t = 0; t < wl.numTensors(); ++t) {
            reads += counts.access[l][t].reads;
            writes += counts.access[l][t].writes;
        }
        // NoC distribution: every word read out of this level travels
        // the network below it to reach the active child instances.
        const double hops = nocHops(lvl.noc, m.spatialProduct(l));
        const double lvl_pj = reads * lvl.read_energy_pj +
            writes * lvl.write_energy_pj +
            reads * hops * lvl.noc_hop_energy_pj;
        res.level_energy_uj[l] = lvl_pj * 1e-6;
        energy_pj += lvl_pj;

        const double per_instance = (reads + writes) / std::max(ai[l], 1.0);
        res.level_cycles[l] = per_instance / lvl.bandwidth_words_per_cycle;
        bound_cycles = std::max(bound_cycles, res.level_cycles[l]);
    }

    res.energy_uj = energy_pj * 1e-6;
    res.latency_cycles = bound_cycles;
    res.edp = res.energy_uj * res.latency_cycles;
    return res;
}

CostResult
CostModel::evaluate(const Workload &wl, const ArchConfig &arch,
                    const Mapping &m)
{
    const MappingError err = validateMapping(wl, arch, m);
    if (err != MappingError::Ok) {
        CostResult res;
        res.valid = false;
        res.error = err;
        res.latency_cycles = std::numeric_limits<double>::infinity();
        res.energy_uj = std::numeric_limits<double>::infinity();
        res.edp = std::numeric_limits<double>::infinity();
        return res;
    }
    return fold(wl, arch, m, computeAccessCounts(wl, arch, m));
}

} // namespace mse
