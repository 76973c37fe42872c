/**
 * @file
 * Replay buffer of previously optimized mappings (Sec. 5.1).
 *
 * Warm-start keeps the best mapping found for every workload optimized
 * so far and initializes new searches from the entry most similar to the
 * incoming workload. Similarity is the workload editing distance: the
 * number of dimensions whose bounds differ.
 */
#pragma once

#include <optional>
#include <vector>

#include "mapping/mapping.hpp"
#include "model/cost_model.hpp"
#include "workload/workload.hpp"

namespace mse {

/** One remembered optimization outcome. */
struct ReplayEntry
{
    Workload workload;
    Mapping mapping;
    CostResult cost;
};

/** FIFO store of optimized mappings with similarity lookup. */
class ReplayBuffer
{
  public:
    explicit ReplayBuffer(size_t capacity = 256) : capacity_(capacity) {}

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    const std::vector<ReplayEntry> &entries() const { return entries_; }

    /** Remember an optimized mapping (evicts the oldest when full). */
    void push(Workload wl, Mapping m, CostResult cost);

    /**
     * The entry with the smallest editing distance to `wl` (ties go to
     * the most recent); nullopt when empty or when no entry has a
     * compatible dimensionality.
     */
    std::optional<ReplayEntry> mostSimilar(const Workload &wl) const;

    /** The most recently pushed compatible entry (warm-start-by-
     *  previous-layer); nullopt when none. */
    std::optional<ReplayEntry> mostRecent(const Workload &wl) const;

  private:
    size_t capacity_;
    std::vector<ReplayEntry> entries_;
};

} // namespace mse
