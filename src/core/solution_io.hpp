// Text serialization of a routed solution, so post-routing stages (DVI,
// visualization, validation) can run standalone on saved routing results.
//
// Format:
//
//   solution <name> <width> <height> <num_metal_layers> <style>
//   net <id>
//   m <layer> <x> <y> <armmask>     # one per metal point
//   v <via_layer> <x> <y> <pin>     # one per via (pin = 0/1)
//   ...
//
// Grammar, as parse_solution reads it:
//  * Lines end at '\n'.  '#' starts a comment that runs to the end of the
//    line; a line with no token left is skipped.
//  * Tokens are separated by any run of ' ', '\t', '\r', '\v', '\f' (so CRLF
//    files read the same).  Anything after a record's last field is ignored.
//  * An integer is an optional '+' or '-' followed by decimal digits; it ends
//    at the first non-digit, which the next field starts from.  A value
//    outside int range is malformed.
//  * Exactly one `solution` header comes first.  Its style is SIM, SID,
//    SAQP-SIM or SIM-TRIM; width and height lie in [1, 2^24] (the metal
//    key's coordinate range) and num_metal_layers is at least 1.
//  * `net` ids are dense and ascending from 0.  `m` and `v` records belong
//    to the latest net: 1 <= layer <= num_metal_layers for metal,
//    1 <= via_layer < num_metal_layers for vias, armmask in [0, 15], and
//    any nonzero pin marks a pin via.
//  * The coordinate rule: every `m`/`v` point lies in the header's grid,
//    0 <= x < width and 0 <= y < height.
//
// A violation is an error naming the line.  solution_to_text writes the
// canonical form: one space between fields, metal sorted by key and vias
// sorted per net; its bytes are what solution_fingerprint hashes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/routed_net.hpp"
#include "grid/colored_grid.hpp"
#include "util/status.hpp"

namespace sadp::core {

/// A standalone routed design: the geometry plus the grid configuration
/// needed to rebuild the databases.
struct RoutedSolution {
  std::string name;
  int width = 0;
  int height = 0;
  int num_metal_layers = 3;
  grid::SadpStyle style = grid::SadpStyle::kSim;
  std::vector<RoutedNet> nets;
};

/// Capture the nets of a router run into a standalone solution.
[[nodiscard]] RoutedSolution capture_solution(const std::string& name,
                                              const grid::RoutingGrid& grid,
                                              grid::SadpStyle style,
                                              const std::vector<RoutedNet>& nets);

/// The canonical text, built in one buffer.
[[nodiscard]] std::string solution_to_text(const RoutedSolution& solution);

/// One pass over the text.  On error returns nullopt and, when `error` is
/// non-null, stores a one-line description.
[[nodiscard]] std::optional<RoutedSolution> parse_solution(
    std::string_view text, std::string* error = nullptr);

/// Rebuild the shared databases from a solution.  The solution's dimensions
/// and layer count must agree with the grid, and every metal point and via
/// must lie in bounds — a mismatch returns kInvalidInput (with the databases
/// untouched) instead of tripping the grid's internal asserts, because
/// solutions are external input (files, wire requests).
[[nodiscard]] util::Status apply_solution(const RoutedSolution& solution,
                                          grid::RoutingGrid& grid,
                                          via::ViaDb& vias);

}  // namespace sadp::core
