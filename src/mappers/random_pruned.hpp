/**
 * @file
 * Random-Pruned mapper: Timeloop-mapper's default search (Sec. 4.3).
 *
 * Samples the map space uniformly at random but prunes redundant
 * candidates before spending cost-model evaluations on them: mappings
 * whose loop orders differ only in the placement of factor-1 loops are
 * canonically identical (Mapping::canonicalKey), and previously-seen
 * canonical mappings are skipped. There is no learning: each sample is
 * independent, which makes every sample cheap — the property that lets
 * random search win under very tight wall-clock budgets (Fig. 3, bottom).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "mappers/mapper.hpp"

namespace mse {

/**
 * The canonically distinct mappings seen so far, for mappings of one
 * shape. insert() agrees with inserting canonicalKey() strings into a
 * set, but keys on a 64-bit digest of Mapping::canonicalWordsInto and
 * keeps each entry's words LEB128-packed in one byte arena to settle
 * digest collisions: no allocation per entry, about 70 bytes of arena
 * per entry of a 3-level CONV mapping.
 */
class CanonicalMappingSet
{
  public:
    /** Record m; true iff no canonically equal mapping was recorded. */
    bool insert(const Mapping &m);

    size_t size() const { return count_; }

  private:
    /** Open-addressing slot; offset kEmpty marks a free one. */
    struct Slot
    {
        uint64_t digest;
        size_t offset; ///< Start of the entry's words in arena_.
    };
    static constexpr size_t kEmpty = ~size_t{0};

    /** True iff the arena entry at offset holds exactly words_. */
    bool sameWords(size_t offset) const;

    /** Double the slot table (at least 64 slots). */
    void grow();

    std::vector<int64_t> words_; ///< Canonical words of the probe.
    std::vector<uint8_t> arena_;
    std::vector<Slot> slots_; ///< Power-of-two size, load <= 1/2.
    size_t count_ = 0;
};

/** Pruned random search over the map space. */
class RandomPrunedMapper : public Mapper
{
  public:
    /**
     * @param dedupe  Skip canonically-duplicate mappings (the "pruned"
     *                part); disable to get plain random search.
     */
    explicit RandomPrunedMapper(bool dedupe = true) : dedupe_(dedupe) {}

    std::string name() const override { return "random-pruned"; }

    SearchResult search(const MapSpace &space, const EvalFn &eval,
                        const SearchBudget &budget, Rng &rng) override;

  private:
    bool dedupe_;
};

} // namespace mse
