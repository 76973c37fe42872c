#include "core/replay_buffer.hpp"

namespace mse {

void
ReplayBuffer::push(Workload wl, Mapping m, CostResult cost)
{
    if (entries_.size() >= capacity_)
        entries_.erase(entries_.begin());
    entries_.push_back({std::move(wl), std::move(m), std::move(cost)});
}

std::optional<ReplayEntry>
ReplayBuffer::mostSimilar(const Workload &wl) const
{
    int best_dist = -1;
    const ReplayEntry *best = nullptr;
    for (const auto &e : entries_) {
        if (e.workload.numDims() != wl.numDims())
            continue;
        const int dist = editDistance(e.workload, wl);
        if (best == nullptr || dist <= best_dist) {
            best = &e;
            best_dist = dist;
        }
    }
    if (!best)
        return std::nullopt;
    return *best;
}

std::optional<ReplayEntry>
ReplayBuffer::mostRecent(const Workload &wl) const
{
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
        if (it->workload.numDims() == wl.numDims())
            return *it;
    }
    return std::nullopt;
}

} // namespace mse
