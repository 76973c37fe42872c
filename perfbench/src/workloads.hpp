/**
 * @file
 * Deterministic input generator: for a workload name and a seed, the
 * requests of a round, the daemon configuration, and the pre-populated
 * mapping-store file. The same seed gives byte-identical
 * inputs; nothing here reads the clock.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/service.hpp"

namespace perfbench {

/**
 * Every listed workload drives the daemon serially: one connection, one
 * executor (mse_serve --executors) and one pool lane (MSE_THREADS). On a
 * host that steals CPU, configurations running several daemon threads at
 * once spread beyond every bound from run to run (see NOTES.md).
 */
constexpr size_t kExecutors = 1;
constexpr size_t kPoolThreads = 1;

/** One search request of a round. */
struct Request
{
    std::string line; ///< Wire JSON, without the trailing newline.
    bool sparse = false;
};

/**
 * Everything one run of a workload needs. A run is a series of rounds;
 * each round starts a fresh daemon on a fresh copy of the store file and
 * sends it `requests` in order, so every round sees the same state and
 * must return the same answers.
 */
struct Plan
{
    std::string name;
    std::vector<Request> requests; ///< One round.

    /** Pre-populated store file ("" = the daemon starts empty). */
    std::string store_file;
    size_t store_entries = 0;
};

/** The search a generated line decodes to, exactly as the daemon's
 *  parseWireRequest sees it. Throws std::logic_error if it does not
 *  parse (a generator bug). */
mse::SearchRequest searchOf(const std::string &line);

/**
 * Generate the plan for `workload` under `seed`. Files (the store) are
 * written under `dir`. Throws std::invalid_argument on an unknown name.
 */
Plan makePlan(const std::string &workload, uint64_t seed,
              const std::string &dir);

} // namespace perfbench
