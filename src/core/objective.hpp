/**
 * @file
 * Optimization objectives (Sec. 3: "optimizing some objective (e.g.,
 * latency or energy-efficiency)... any formulation of the objective can
 * also be used").
 *
 * Mappers minimize CostResult::edp; applyObjective re-targets that
 * scalar to any supported objective so every mapper can optimize
 * latency-only, energy-only, ED^2P, etc. without modification. Energy
 * and latency fields are preserved so the Pareto frontier stays
 * meaningful.
 */
#pragma once

#include <optional>
#include <string>

#include "model/cost_model.hpp"

namespace mse {

/** Scalar figure of merit to minimize. */
enum class Objective
{
    Edp,      ///< energy * delay (the paper's default)
    Energy,   ///< energy only
    Latency,  ///< delay only
    Ed2p,     ///< energy * delay^2 (latency-leaning)
    E2dp,     ///< energy^2 * delay (energy-leaning)
};

/** Printable name of an objective. */
const char *objectiveName(Objective o);

/**
 * Inverse of objectiveName, case-insensitive ("edp", "ED2P", ...);
 * nullopt for unknown names. Used by the wire protocol and the
 * mapping store's on-disk records.
 */
std::optional<Objective> objectiveFromName(const std::string &name);

/** The scalar score of a cost under an objective. */
double objectiveScore(const CostResult &cost, Objective o);

/**
 * Re-target one result so mappers minimize the chosen objective: a
 * valid result's `edp` becomes the objective score. The identity for
 * Edp (a combined sparsity-aware score is not energy * latency, so Edp
 * must not recompute it); invalid results pass through unchanged.
 */
void applyObjective(CostResult &cost, Objective o);

} // namespace mse
