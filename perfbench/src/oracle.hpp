/**
 * @file
 * Correctness oracle: every search reply's mapping is parsed and scored
 * again with the scalar cost model (the sparse model for sparse
 * requests), independently of the daemon's batched evaluation path; the
 * reply's score must match bit for bit. The digest pins the answers of
 * a round so two runs of one seed can be compared.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

/** The fields of one search reply the benchmark uses. */
struct Answer
{
    double score = 0.0;
    std::string mapping;
    std::string store; ///< "cold" / "near" / "exact".
    double samples_to_incumbent = 0.0;
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    double wall_ms = 0.0;
};

/** The scalar model of the request (sparse or dense), independent of
 *  the daemon's batched path. */
mse::CostResult scalarCost(const mse::SearchRequest &r,
                           const mse::Mapping &m);

/**
 * Check every successful search outcome; answers are added to `out`
 * keyed by request index. Returns the number of mismatches, each
 * described in `errors`.
 */
size_t verifyReplies(const Plan &plan, const std::vector<Outcome> &outcomes,
                     std::map<size_t, Answer> &out,
                     std::vector<std::string> &errors);

/** Digest of (request, score, mapping) over a round, in request order;
 *  "" when an answer is missing. */
std::string roundDigest(const Plan &plan,
                        const std::map<size_t, Answer> &answers);

} // namespace perfbench
