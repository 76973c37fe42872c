#include "core/objective.hpp"

#include <cctype>

namespace mse {

const char *
objectiveName(Objective o)
{
    switch (o) {
      case Objective::Edp: return "EDP";
      case Objective::Energy: return "energy";
      case Objective::Latency: return "latency";
      case Objective::Ed2p: return "ED2P";
      case Objective::E2dp: return "E2DP";
    }
    return "unknown";
}

std::optional<Objective>
objectiveFromName(const std::string &name)
{
    std::string lower;
    lower.reserve(name.size());
    for (const char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "edp")
        return Objective::Edp;
    if (lower == "energy")
        return Objective::Energy;
    if (lower == "latency")
        return Objective::Latency;
    if (lower == "ed2p")
        return Objective::Ed2p;
    if (lower == "e2dp")
        return Objective::E2dp;
    return std::nullopt;
}

double
objectiveScore(const CostResult &cost, Objective o)
{
    switch (o) {
      case Objective::Edp:
        return cost.energy_uj * cost.latency_cycles;
      case Objective::Energy:
        return cost.energy_uj;
      case Objective::Latency:
        return cost.latency_cycles;
      case Objective::Ed2p:
        return cost.energy_uj * cost.latency_cycles *
            cost.latency_cycles;
      case Objective::E2dp:
        return cost.energy_uj * cost.energy_uj * cost.latency_cycles;
    }
    return cost.edp;
}

void
applyObjective(CostResult &cost, Objective o)
{
    if (o != Objective::Edp && cost.valid)
        cost.edp = objectiveScore(cost, o);
}

} // namespace mse
