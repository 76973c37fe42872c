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
    // so the comparator stays a strict weak order.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    const auto hasNan = [&](size_t i) {
        return std::isnan(points[i][0]) || std::isnan(points[i][1]);
    };
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        const bool nx = hasNan(x), ny = hasNan(y);
        if (nx || ny)
            return !nx && ny;
        const ObjectivePoint &a = points[x], &b = points[y];
        return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
    });
    std::vector<int> rank(n, 0);
    for (size_t i = 1; i < n; ++i) {
        const ObjectivePoint &p = points[order[i]];
        int r = 0;
        for (size_t j = 0; j < i; ++j) {
            if (rank[order[j]] >= r && dominates(points[order[j]], p))
                r = rank[order[j]] + 1;
        }
        rank[order[i]] = r;
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
