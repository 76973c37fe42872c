#include "mappers/random_pruned.hpp"

#include <algorithm>

namespace mse {

namespace {

/** 64-bit digest of a word sequence (multiply-xorshift per word). */
uint64_t
digestOf(const std::vector<int64_t> &words)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ words.size();
    for (int64_t w : words) {
        h = (h ^ static_cast<uint64_t>(w)) * 0xff51afd7ed558ccdULL;
        h ^= h >> 32;
    }
    h *= 0xc4ceb9fe1a85ec53ULL;
    return h ^ (h >> 29);
}

} // namespace

bool
CanonicalMappingSet::insert(const Mapping &m)
{
    m.canonicalWordsInto(words_);
    const uint64_t digest = digestOf(words_);
    if (2 * (count_ + 1) > slots_.size())
        grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = digest & mask;; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.offset == kEmpty) {
            slot = {digest, arena_.size()};
            for (int64_t w : words_) {
                uint64_t v = static_cast<uint64_t>(w);
                for (; v >= 0x80; v >>= 7)
                    arena_.push_back(static_cast<uint8_t>(v | 0x80));
                arena_.push_back(static_cast<uint8_t>(v));
            }
            ++count_;
            return true;
        }
        if (slot.digest == digest && sameWords(slot.offset))
            return false;
    }
}

bool
CanonicalMappingSet::sameWords(size_t offset) const
{
    const uint8_t *p = arena_.data() + offset;
    for (int64_t w : words_) {
        uint64_t v = 0;
        for (int shift = 0;; shift += 7) {
            const uint8_t byte = *p++;
            v |= static_cast<uint64_t>(byte & 0x7f) << shift;
            if (byte < 0x80)
                break;
        }
        if (v != static_cast<uint64_t>(w))
            return false;
    }
    return true;
}

void
CanonicalMappingSet::grow()
{
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(64, 2 * old.size()), Slot{0, kEmpty});
    const size_t mask = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.offset == kEmpty)
            continue;
        size_t i = s.digest & mask;
        while (slots_[i].offset != kEmpty)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

SearchResult
RandomPrunedMapper::search(const MapSpace &space, const EvalFn &eval,
                           const SearchBudget &budget, Rng &rng)
{
    SearchTracker tracker(eval, budget);
    CanonicalMappingSet seen;
    // Bound the number of consecutive duplicate draws so tiny map spaces
    // cannot spin forever.
    const int max_consecutive_dupes = 256;
    int dupes = 0;
    // Draw candidates serially (dedupe and the RNG stream stay on this
    // thread), evaluate them in parallel chunks. The chunk size bounds
    // how far sampling can run ahead of the sample budget.
    const size_t chunk = 64;
    bool space_drained = false;
    while (!tracker.exhausted() && !space_drained) {
        std::vector<Mapping> batch;
        batch.reserve(chunk);
        while (batch.size() < chunk) {
            Mapping m = space.randomMapping(rng);
            if (dedupe_) {
                if (!seen.insert(m)) {
                    if (++dupes >= max_consecutive_dupes) {
                        space_drained = true;
                        break;
                    }
                    continue;
                }
                dupes = 0;
            }
            batch.push_back(std::move(m));
        }
        tracker.evaluateBatch(batch);
    }
    tracker.endGeneration();
    return tracker.takeResult();
}

} // namespace mse
