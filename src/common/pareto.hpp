/**
 * @file
 * Pareto-dominance utilities for multi-objective mapping search.
 *
 * The paper's MSE optimizes (energy, latency) as a multi-objective
 * problem and reports the lowest-EDP point on the Pareto frontier
 * (Sec. 4.1). Gamma's selection also ranks candidates by nondominated
 * sorting. Both use these helpers; objectives are minimized.
 */
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace mse {

/** A point in (energy, latency) objective space (both minimized). */
using ObjectivePoint = std::array<double, 2>;

/** True iff a dominates b (<= everywhere, < somewhere). */
bool dominates(const ObjectivePoint &a, const ObjectivePoint &b);

/**
 * Nondominated sorting: returns the Pareto rank of each point (0 = on
 * the frontier, 1 = frontier after removing rank 0, ...). A point's rank
 * is the length of the longest dominance chain above it, computed in
 * O(n^2) after a sort; this equals front-by-front peeling whenever
 * dominance is a strict partial order (finite and infinite costs).
 */
std::vector<int> paretoRanks(const std::vector<ObjectivePoint> &points);

/**
 * Incrementally maintained Pareto frontier of (energy, latency) points
 * with attached payload indices.
 */
class ParetoArchive
{
  public:
    struct Entry
    {
        double energy;
        double latency;
        size_t payload; ///< Caller-defined identifier.
    };

    /**
     * Insert a point; drops it if dominated, evicts entries it
     * dominates. Returns true if the point joined the frontier.
     */
    bool insert(double energy, double latency, size_t payload);

    const std::vector<Entry> &entries() const { return entries_; }

    /** Index into entries() of the lowest energy*latency point; -1 if empty. */
    int bestEdpIndex() const;

  private:
    std::vector<Entry> entries_;
};

} // namespace mse
