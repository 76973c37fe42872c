/**
 * @file
 * Textual serialization of mappings.
 *
 * A deployment flow runs MSE once and caches the optimized mapping per
 * (layer, accelerator); these helpers give that cache a stable,
 * human-auditable format. One mapping serializes to a single line:
 *
 *   v1;L=3;D=7;lvl t1,2,... s1,1,... o0,3,... k1,1,1;lvl ...
 *
 * Levels are listed innermost first. The keep block is omitted for
 * all-keep levels. parseMapping() validates structure (counts,
 * permutations) but not workload legality — run validateMapping() after
 * loading against the target workload/architecture.
 *
 * The parser is strict: exactly L levels, each with its t, s, o and
 * optional k fields in that order, one space between fields and one
 * ',' between values; no empty cell (so no trailing ';') and integers
 * as whole decimal cells with at most a leading '-'. DESIGN.md §7
 * gives the grammar.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "mapping/mapping.hpp"

namespace mse {

/** Serialize a mapping to the one-line v1 format. */
std::string serializeMapping(const Mapping &m);

/**
 * Parse a serialized mapping; nullopt on malformed input (wrong header,
 * inconsistent counts, non-permutation orders, non-positive factors,
 * fields out of order or repeated, stray bytes).
 */
std::optional<Mapping> parseMapping(std::string_view text);

} // namespace mse
