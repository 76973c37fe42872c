/**
 * @file
 * Textual serialization of workloads, companion to mapping_io.
 *
 * Format (one line):
 *   wl1;name;dims B=16,K=256,...;tensor Name:kind:density:rank|rank;...
 * where each rank is a '+'-joined list of coeff*dimIndex terms, e.g.
 * the CONV input row rank "1*3+1*5" (Y + R).
 *
 * The parser is strict: every separator is exactly one byte, no cell
 * is empty (so no trailing ';'), integers are whole decimal cells with
 * at most a leading '-', and a density is a finite decimal (fixed or
 * exponent form, as %g writes it) in (0, 1]. DESIGN.md §7 gives the
 * grammar.
 */
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "workload/workload.hpp"

namespace mse {

/** Serialize a workload to the one-line wl1 format. */
std::string serializeWorkload(const Workload &wl);

/** Parse a serialized workload; nullopt on malformed input. */
std::optional<Workload> parseWorkload(std::string_view text);

} // namespace mse
