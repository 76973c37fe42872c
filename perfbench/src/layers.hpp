/**
 * @file
 * The traced in-process path. After the daemon has answered a workload,
 * the benchmark replays those requests in its own process, calling each
 * layer's public functions directly and wrapping every call in a span:
 *
 *  1. service: an MseService configured like the daemon, one request
 *     in flight; submit -> ticket ready gives queue wait.
 *  2. decomposition: parseWireRequest, MappingStore::lookup,
 *     warmStartSeeds, the BatchCostEvaluator constructor,
 *     MseEngine::optimize, MappingStore::recordIfBetter and
 *     searchReplyJson(..).dump(), one request after another; each
 *     request also runs once more with a disabled tracer, and traced
 *     over untraced wall time is the tracing overhead.
 *  3. replays of the search itself: Mapper::search against recorded
 *     costs (generation loop only), then the recorded generation
 *     batches through BatchCostEvaluator::evaluateBatch (pool and
 *     inline), the distinct candidates through evaluateBatchSoA, and
 *     sparse candidates through SparseCostModel::evaluate.
 *
 * Every stage checks its answer against the daemon's reply (mapping and
 * score, bit for bit) before its timings are used.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct LayerInputs
{
    const Plan *plan = nullptr;
    const std::map<size_t, Answer> *answers = nullptr;
    std::vector<size_t> replay; ///< Request indices, round order.
    std::string work_dir;
    double budget_s = 10.0; ///< Wall time shared by the three stages.
    size_t nproc = 1;       ///< Pool lanes for the batch replays.
};

/**
 * Run the three stages. Metrics with no data on this workload are
 * reported as 0 with a line in `notes`; any disagreement with the
 * daemon goes to `errors`.
 */
std::vector<Metric> runLayers(const LayerInputs &in, Tracer &tracer,
                              std::vector<std::string> &notes,
                              std::vector<std::string> &errors);

} // namespace perfbench
