#include "common/pareto.hpp"

#include <algorithm>
#include <cmath>

namespace mse {

bool
dominates(const ObjectivePoint &a, const ObjectivePoint &b)
{
    return !(a[0] > b[0]) && !(a[1] > b[1]) && (a[0] < b[0] || a[1] < b[1]);
}

std::vector<int>
paretoRanks(const std::vector<ObjectivePoint> &points)
{
    const size_t n = points.size();
    // Visit points in lexicographic (energy, latency) order: a point
    // that dominates another is lexicographically smaller, so every
    // point's dominators are ranked before it. Costs are never NaN;
    // points with a NaN coordinate still sort (last, as one tie class)
    // so the comparator stays a strict weak order. Sorting the points
    // themselves, NaN test done once, takes the same comparisons, and
    // so yields the same order, as sorting their indices would.
    struct Entry
    {
        ObjectivePoint p;
        bool nan;
        int rank;
        size_t index;
    };
    std::vector<Entry> sorted(n);
    for (size_t i = 0; i < n; ++i) {
        const ObjectivePoint &p = points[i];
        sorted[i] = {p, std::isnan(p[0]) || std::isnan(p[1]), 0, i};
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &x, const Entry &y) {
                  if (x.nan || y.nan)
                      return !x.nan && y.nan;
                  return x.p[0] < y.p[0] ||
                      (x.p[0] == y.p[0] && x.p[1] < y.p[1]);
              });
    std::vector<int> rank(n);
    for (size_t i = 0; i < n; ++i) {
        // One more than the highest-ranked dominator. dominates() is
        // spelled out in integer arithmetic so the pass does not branch
        // on each pair, which mispredicts on a fresh population.
        const ObjectivePoint &p = sorted[i].p;
        int r = 0;
        for (size_t j = 0; j < i; ++j) {
            const ObjectivePoint &q = sorted[j].p;
            const int above = (q[0] > p[0]) | (q[1] > p[1]);
            const int below = (q[0] < p[0]) | (q[1] < p[1]);
            r = std::max(r, (sorted[j].rank + 1) & -(below & ~above));
        }
        sorted[i].rank = r;
        rank[sorted[i].index] = r;
    }
    return rank;
}

bool
ParetoArchive::insert(double energy, double latency, size_t payload)
{
    for (const auto &e : entries_) {
        // Weak dominance: exact duplicates are not an improvement.
        if (e.energy <= energy && e.latency <= latency)
            return false;
    }
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [&](const Entry &e) {
                           return energy <= e.energy &&
                               latency <= e.latency &&
                               (energy < e.energy || latency < e.latency);
                       }),
        entries_.end());
    entries_.push_back({energy, latency, payload});
    return true;
}

int
ParetoArchive::bestEdpIndex() const
{
    int best = -1;
    double best_edp = 0.0;
    for (size_t i = 0; i < entries_.size(); ++i) {
        const double edp = entries_[i].energy * entries_[i].latency;
        if (best < 0 || edp < best_edp) {
            best = static_cast<int>(i);
            best_edp = edp;
        }
    }
    return best;
}

} // namespace mse
