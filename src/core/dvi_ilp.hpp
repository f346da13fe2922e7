// ILP formulation of the TPL-aware double via insertion problem (paper
// Section III-E, constraints C1-C8), solved with the in-house 0-1 branch
// and bound (ilp::solve) instead of Gurobi.
//
// Variables per single via i: oV/gV/bV (TPL mask color) and uV
// (uncolorable).  Variables per feasible DVIC j of via i: D (insert a
// redundant via) and oD/gD/bD (its color).  Objective:
//
//     maximize  sum D_ij  -  B * sum uV_i
//
// Constraints:
//   C1  at most one redundant via per single via,
//   C2  conflicting DVICs (same via location) are mutually exclusive,
//   C3  every via takes exactly one of {orange, green, blue, uncolorable},
//   C4  an inserted redundant via takes exactly one color (big-M on D),
//   C5  vias within same-color pitch take different colors,
//   C6  a via and an inserted redundant via within pitch differ in color,
//   C7  two inserted redundant vias within pitch differ in color,
//   C8  all variables binary.
#pragma once

#include <vector>

#include "core/dvi_heuristic.hpp"
#include "core/dvic.hpp"
#include "ilp/bnb.hpp"
#include "ilp/model.hpp"

namespace sadp::core {

/// Variable ids of the DVI ILP, for inspection and warm starts.
struct DviIlpVars {
  /// Per via: [orange, green, blue, uncolorable].
  std::vector<std::array<ilp::VarId, 4>> via_color;
  /// Per via, per feasible DVIC: the insertion variable D.
  std::vector<std::vector<ilp::VarId>> insert;
  /// Per via, per feasible DVIC: [oD, gD, bD].
  std::vector<std::vector<std::array<ilp::VarId, 3>>> dvic_color;
};

/// Build the literal C1-C8 model.  B is (#vias + 1) so a single
/// uncolorable via can never be traded for insertions; B' = 4 deactivates
/// the color constraints of non-inserted DVICs.
struct DviIlp {
  ilp::Model model;
  DviIlpVars vars;
};
[[nodiscard]] DviIlp build_dvi_ilp(const DviProblem& problem);

struct DviIlpOutput : DviSolution {
  ilp::SolveStatus status = ilp::SolveStatus::kUnknown;
};

/// Build and solve; decode insertions / dead vias / uncolorable count.
/// `warm_start` (Algorithm 3's answer, or null) seeds the search, which
/// polls `budget`; result.seconds reads the budget's clock.
[[nodiscard]] DviIlpOutput solve_dvi_ilp(const DviProblem& problem,
                                         const DviHeuristicOutput* warm_start,
                                         const util::SolverBudget& budget = {});

}  // namespace sadp::core
