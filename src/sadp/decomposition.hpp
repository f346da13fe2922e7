// SADP layout decomposition: synthesize core (mandrel) and cut/trim masks
// for a routed metal layer and DRC them (paper Section I, Figs. 1 and 4).
//
// Scope note (see DESIGN.md "Substitutions"): this is a *behavioural* mask
// model, not a lithography simulator.  Straight wires and decomposable
// turns synthesize into DRC-clean core and cut/trim masks; a forbidden turn
// synthesizes into the sub-minimum cut/trim configuration that makes it
// undecomposable, which the geometric DRC engine then reports.  The module
// exists so the router's "no forbidden turns" guarantee can be validated
// end-to-end against actual mask geometry, and to power the Fig. 4 demo.
#pragma once

#include <vector>

#include "grid/colored_grid.hpp"
#include "grid/geometry.hpp"
#include "grid/turns.hpp"
#include "sadp/mask.hpp"
#include "sadp/rules.hpp"

namespace sadp::litho {

/// The metal pattern of one layer: occupied grid points with the directions
/// their wires leave in.
struct LayerPattern {
  int layer = 2;
  std::vector<std::pair<grid::Point, grid::ArmMask>> points;
};

/// Decomposition result of one layer.
struct LayerDecomposition {
  Mask core;          ///< mandrel patterns
  Mask assist;        ///< second mask: cut (SIM) or trim (SID) patterns
  /// DRC violations found on the synthesized masks; empty iff the pattern
  /// is decomposable under this model.
  std::vector<DrcViolation> violations;
  /// Number of non-preferred turns (decomposable with degradation).
  int degradations = 0;
  /// Number of forbidden turns encountered.
  int forbidden_turns = 0;
};

/// Classify all L-turns present in the pattern against the rule table.
/// Returns (preferred, non_preferred, forbidden) counts.
struct TurnCensus {
  int preferred = 0;
  int non_preferred = 0;
  int forbidden = 0;
};
[[nodiscard]] TurnCensus census_turns(const LayerPattern& pattern,
                                      const grid::TurnRules& rules);

/// Synthesize and DRC the two masks of one metal layer under the rules of
/// sadp/rules.hpp.
[[nodiscard]] LayerDecomposition decompose_layer(const LayerPattern& pattern,
                                                 grid::SadpStyle style);

}  // namespace sadp::litho
