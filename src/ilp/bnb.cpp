#include "ilp/bnb.hpp"

#include <algorithm>
#include <cmath>

#include "ilp/components.hpp"
#include "ilp/simplex.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace sadp::ilp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kFeasEps = 1e-6;

/// Branch-and-bound state for one component.  The model is internally
/// normalized to *maximization*.
class ComponentSolver {
 public:
  ComponentSolver(const Model& model, const BnbParams& params,
                  const util::SolverBudget& budget, bool tail_decomposition = true)
      : model_(model),
        params_(params),
        budget_(budget),
        tail_decomposition_(tail_decomposition) {
    const int n = model.num_vars();
    sign_ = model.maximize() ? 1.0 : -1.0;
    obj_.resize(static_cast<std::size_t>(n));
    all_integer_obj_ = true;
    for (int v = 0; v < n; ++v) {
      obj_[static_cast<std::size_t>(v)] =
          sign_ * model.objective()[static_cast<std::size_t>(v)];
      if (std::abs(obj_[static_cast<std::size_t>(v)] -
                   std::round(obj_[static_cast<std::size_t>(v)])) > kEps) {
        all_integer_obj_ = false;
      }
    }

    fixed_.assign(static_cast<std::size_t>(n), -1);
    var_constraints_.resize(static_cast<std::size_t>(n));
    const auto& constraints = model.constraints();
    min_act_.resize(constraints.size());
    max_act_.resize(constraints.size());
    for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
      double lo = 0.0, hi = 0.0;
      for (const auto& term : constraints[ci].terms) {
        var_constraints_[static_cast<std::size_t>(term.var)].push_back(
            static_cast<int>(ci));
        lo += std::min(term.coef, 0.0);
        hi += std::max(term.coef, 0.0);
      }
      min_act_[ci] = lo;
      max_act_[ci] = hi;
    }

    // Clique bound support: constraints of the form sum(x) <= 1 over
    // unit-coefficient variables (the C1/C2 rows of the DVI ILP) mean at
    // most ONE of their members can contribute to the objective.  Assign
    // each variable to the first such clique containing it; the dual bound
    // then adds max-over-clique instead of sum-over-clique.
    clique_of_.assign(static_cast<std::size_t>(n), -1);
    int num_cliques = 0;
    for (const auto& c : constraints) {
      if (c.sense != Sense::kLe || c.rhs != 1.0 || c.terms.size() < 2) continue;
      bool unit = true;
      for (const auto& term : c.terms) unit &= term.coef == 1.0;
      if (!unit) continue;
      bool used = false;
      for (const auto& term : c.terms) {
        if (clique_of_[static_cast<std::size_t>(term.var)] < 0 &&
            obj_[static_cast<std::size_t>(term.var)] > 0) {
          clique_of_[static_cast<std::size_t>(term.var)] = num_cliques;
          used = true;
        }
      }
      if (used) ++num_cliques;
    }
    clique_max_scratch_.assign(static_cast<std::size_t>(num_cliques), 0.0);
    clique_taken_scratch_.assign(static_cast<std::size_t>(num_cliques), 0);
    clique_touched_.reserve(static_cast<std::size_t>(num_cliques));

    // Static branching order: large |objective| first, then high degree.
    order_.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) order_[static_cast<std::size_t>(v)] = v;
    std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
      const double oa = std::abs(obj_[static_cast<std::size_t>(a)]);
      const double ob = std::abs(obj_[static_cast<std::size_t>(b)]);
      if (oa != ob) return oa > ob;
      return var_constraints_[static_cast<std::size_t>(a)].size() >
             var_constraints_[static_cast<std::size_t>(b)].size();
    });
  }

  /// Seed the incumbent with a known-feasible assignment.  Also used as a
  /// branching value hint so the first dive reproduces the warm solution.
  void warm_start(const std::vector<int>& x) {
    if (static_cast<int>(x.size()) != model_.num_vars() || !model_.feasible(x)) {
      return;
    }
    value_hint_ = x;
    double obj = 0.0;
    for (int v = 0; v < model_.num_vars(); ++v) {
      if (x[static_cast<std::size_t>(v)]) obj += obj_[static_cast<std::size_t>(v)];
    }
    has_incumbent_ = true;
    best_obj_ = obj;
    best_x_ = x;
  }

  Solution run() {
    Solution result;

    // Root propagation.
    if (!propagate_all()) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }

    root_bound_ = remaining_upper_bound();
    bool any_objective = false;
    for (const double c : obj_) any_objective |= c != 0.0;
    if (any_objective && model_.num_vars() <= 400) {
      const LpResult lp = solve_lp_relaxation(model_, &fixed_);
      if (lp.status == LpResult::Status::kInfeasible) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
      if (lp.status == LpResult::Status::kOptimal) {
        root_bound_ = std::min(root_bound_, sign_ * lp.objective);
      }
    }

    dfs(0);

    result.nodes_explored = nodes_;
    if (!has_incumbent_) {
      result.status = limits_hit_ ? SolveStatus::kUnknown : SolveStatus::kInfeasible;
      return result;
    }
    result.value = best_x_;
    result.objective = sign_ * best_obj_;
    result.status = limits_hit_ ? SolveStatus::kFeasible : SolveStatus::kOptimal;
    return result;
  }

 private:
  struct TrailEntry {
    int var;
  };

  [[nodiscard]] bool limits_exceeded() {
    if (nodes_ > params_.max_nodes || budget_.node_exhausted(nodes_)) {
      limits_hit_ = true;
      return true;
    }
    return false;
  }

  /// Current objective of fixed-to-1 vars plus an optimistic free-variable
  /// contribution: clique members contribute at most the clique maximum
  /// (and nothing once a clique member is already fixed to 1).
  [[nodiscard]] double remaining_upper_bound() {
    double ub = fixed_obj_;
    clique_touched_.clear();
    for (int v = 0; v < model_.num_vars(); ++v) {
      const int f = fixed_[static_cast<std::size_t>(v)];
      const int clique = clique_of_[static_cast<std::size_t>(v)];
      if (clique >= 0 && f == 1) {
        if (!clique_taken_scratch_[static_cast<std::size_t>(clique)]) {
          clique_touched_.push_back(clique);
        }
        clique_taken_scratch_[static_cast<std::size_t>(clique)] = 1;
        // Remove any optimistic contribution recorded for this clique.
        clique_max_scratch_[static_cast<std::size_t>(clique)] = 0.0;
        continue;
      }
      if (f >= 0) continue;
      const double c = obj_[static_cast<std::size_t>(v)];
      if (c <= 0) continue;
      if (clique < 0) {
        ub += c;
      } else if (!clique_taken_scratch_[static_cast<std::size_t>(clique)]) {
        auto& best = clique_max_scratch_[static_cast<std::size_t>(clique)];
        if (best == 0.0) clique_touched_.push_back(clique);
        if (c > best) best = c;
      }
    }
    for (const int clique : clique_touched_) {
      ub += clique_max_scratch_[static_cast<std::size_t>(clique)];
      clique_max_scratch_[static_cast<std::size_t>(clique)] = 0.0;
      clique_taken_scratch_[static_cast<std::size_t>(clique)] = 0;
    }
    return ub;
  }

  /// Fix a variable (records on the trail, updates activities) and enqueue
  /// affected constraints.  Returns false on immediate conflict.
  bool fix(int var, int value) {
    fixed_[static_cast<std::size_t>(var)] = value;
    fixed_obj_ += value ? obj_[static_cast<std::size_t>(var)] : 0.0;
    trail_.push_back({var});
    const auto& constraints = model_.constraints();
    for (int ci : var_constraints_[static_cast<std::size_t>(var)]) {
      double coef = 0.0;
      for (const auto& term : constraints[static_cast<std::size_t>(ci)].terms) {
        if (term.var == var) coef += term.coef;
      }
      min_act_[static_cast<std::size_t>(ci)] += coef * value - std::min(coef, 0.0);
      max_act_[static_cast<std::size_t>(ci)] += coef * value - std::max(coef, 0.0);
      queue_.push_back(ci);
    }
    return true;
  }

  void undo_to(std::size_t mark) {
    const auto& constraints = model_.constraints();
    while (trail_.size() > mark) {
      const int var = trail_.back().var;
      trail_.pop_back();
      const int value = fixed_[static_cast<std::size_t>(var)];
      fixed_obj_ -= value ? obj_[static_cast<std::size_t>(var)] : 0.0;
      for (int ci : var_constraints_[static_cast<std::size_t>(var)]) {
        double coef = 0.0;
        for (const auto& term : constraints[static_cast<std::size_t>(ci)].terms) {
          if (term.var == var) coef += term.coef;
        }
        min_act_[static_cast<std::size_t>(ci)] -= coef * value - std::min(coef, 0.0);
        max_act_[static_cast<std::size_t>(ci)] -= coef * value - std::max(coef, 0.0);
      }
      fixed_[static_cast<std::size_t>(var)] = -1;
    }
    queue_.clear();
  }

  /// Process the propagation queue to fixpoint.  Returns false on conflict.
  bool propagate() {
    const auto& constraints = model_.constraints();
    while (!queue_.empty()) {
      const int ci = queue_.back();
      queue_.pop_back();
      const auto& c = constraints[static_cast<std::size_t>(ci)];
      const double lo = min_act_[static_cast<std::size_t>(ci)];
      const double hi = max_act_[static_cast<std::size_t>(ci)];

      const bool need_le = c.sense != Sense::kGe;
      const bool need_ge = c.sense != Sense::kLe;
      if (need_le && lo > c.rhs + kFeasEps) return false;
      if (need_ge && hi < c.rhs - kFeasEps) return false;

      for (const auto& term : c.terms) {
        if (fixed_[static_cast<std::size_t>(term.var)] >= 0 || term.coef == 0.0) continue;
        if (need_le) {
          if (term.coef > 0 && lo + term.coef > c.rhs + kFeasEps) {
            if (!fix(term.var, 0)) return false;
            continue;
          }
          if (term.coef < 0 && lo - term.coef > c.rhs + kFeasEps) {
            if (!fix(term.var, 1)) return false;
            continue;
          }
        }
        if (need_ge) {
          if (term.coef > 0 && hi - term.coef < c.rhs - kFeasEps) {
            if (!fix(term.var, 1)) return false;
            continue;
          }
          if (term.coef < 0 && hi + term.coef < c.rhs - kFeasEps) {
            if (!fix(term.var, 0)) return false;
          }
        }
      }
    }
    return true;
  }

  bool propagate_all() {
    queue_.clear();
    for (int ci = 0; ci < model_.num_constraints(); ++ci) queue_.push_back(ci);
    return propagate();
  }

  /// Build the residual model over the unfixed (all zero-objective)
  /// variables, drop constraints satisfied by every completion, decompose,
  /// and solve each piece as a feasibility problem.  On success,
  /// tail_values_ holds the full assignment.
  bool solve_zero_objective_tail() {
    const int n = model_.num_vars();
    Model residual;
    std::vector<int> residual_to_global;
    std::vector<int> global_to_residual(static_cast<std::size_t>(n), -1);
    for (int v = 0; v < n; ++v) {
      if (fixed_[static_cast<std::size_t>(v)] < 0) {
        global_to_residual[static_cast<std::size_t>(v)] = residual.num_vars();
        residual_to_global.push_back(v);
        residual.add_var();
      }
    }

    for (const auto& c : model_.constraints()) {
      Constraint reduced;
      reduced.sense = c.sense;
      reduced.rhs = c.rhs;
      double lo = 0.0, hi = 0.0;
      for (const auto& term : c.terms) {
        const int f = fixed_[static_cast<std::size_t>(term.var)];
        if (f >= 0) {
          reduced.rhs -= term.coef * f;
        } else {
          reduced.terms.push_back(
              {global_to_residual[static_cast<std::size_t>(term.var)], term.coef});
          lo += std::min(term.coef, 0.0);
          hi += std::max(term.coef, 0.0);
        }
      }
      // Drop constraints no completion can violate; keep the rest.
      const bool le_tight = c.sense != Sense::kGe && hi > reduced.rhs + kFeasEps;
      const bool ge_tight = c.sense != Sense::kLe && lo < reduced.rhs - kFeasEps;
      if (!le_tight && !ge_tight) {
        // Also catch constant constraints that are violated outright.
        if (reduced.terms.empty()) {
          const bool le_bad = c.sense != Sense::kGe && 0.0 > reduced.rhs + kFeasEps;
          const bool ge_bad = c.sense != Sense::kLe && 0.0 < reduced.rhs - kFeasEps;
          if (le_bad || ge_bad) return false;
        }
        continue;
      }
      residual.add_constraint(std::move(reduced));
    }
    residual.set_objective({}, true);

    tail_values_.assign(fixed_.begin(), fixed_.end());
    for (const auto& comp : split_components(residual)) {
      ComponentSolver sub(comp.model, params_, budget_, /*tail_decomposition=*/false);
      const Solution sol = sub.run();
      nodes_ += sol.nodes_explored;
      if (sol.status != SolveStatus::kOptimal && sol.status != SolveStatus::kFeasible) {
        if (sol.status == SolveStatus::kUnknown) limits_hit_ = true;
        return false;
      }
      for (std::size_t local = 0; local < comp.global_var.size(); ++local) {
        tail_values_[static_cast<std::size_t>(
            residual_to_global[static_cast<std::size_t>(comp.global_var[local])])] =
            sol.value[local];
      }
    }
    return true;
  }

  void record_incumbent_from_tail() {
    if (!model_.feasible(tail_values_)) return;
    if (!has_incumbent_ || fixed_obj_ > best_obj_ + kEps) {
      has_incumbent_ = true;
      best_obj_ = fixed_obj_;
      best_x_ = tail_values_;
    }
  }

  void record_incumbent() {
    std::vector<int> x(fixed_.begin(), fixed_.end());
    if (!model_.feasible(x)) return;  // defensive; propagation should ensure
    if (!has_incumbent_ || fixed_obj_ > best_obj_ + kEps) {
      has_incumbent_ = true;
      best_obj_ = fixed_obj_;
      best_x_ = std::move(x);
    }
  }

  void dfs(int depth) {
    ++nodes_;
    if (limits_exceeded()) return;

    // Bound check.
    double ub = remaining_upper_bound();
    ub = std::min(ub, root_bound_);
    if (has_incumbent_) {
      const double margin = all_integer_obj_ ? 1.0 - kFeasEps : kEps;
      if (ub < best_obj_ + margin) return;
    }

    // Next branching variable.
    int var = -1;
    for (int v : order_) {
      if (fixed_[static_cast<std::size_t>(v)] < 0) {
        var = v;
        break;
      }
    }
    if (var < 0) {
      record_incumbent();
      return;
    }

    // Pure-feasibility tail: once every unfixed variable has a zero
    // objective coefficient, the objective is decided and only feasibility
    // remains.  The residual problem (after dropping constraints that are
    // already satisfied for every completion) decomposes into small
    // independent clusters — e.g. the TPL coloring clusters of the DVI ILP
    // — each solved by a tiny feasibility search.  Without this, chains of
    // coloring variables cause catastrophic chronological backtracking.
    if (tail_decomposition_ &&
        obj_[static_cast<std::size_t>(var)] == 0.0) {  // order_ is |obj|-sorted
      if (solve_zero_objective_tail()) record_incumbent_from_tail();
      return;
    }

    const int first = !value_hint_.empty()
                          ? value_hint_[static_cast<std::size_t>(var)]
                          : (obj_[static_cast<std::size_t>(var)] >= 0 ? 1 : 0);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int value = attempt == 0 ? first : 1 - first;
      const std::size_t mark = trail_.size();
      if (fix(var, value) && propagate()) dfs(depth + 1);
      undo_to(mark);
      if (limits_hit_) return;
    }
  }

  const Model& model_;
  const BnbParams& params_;
  const util::SolverBudget& budget_;
  bool tail_decomposition_ = true;
  std::vector<int> tail_values_;

  double sign_ = 1.0;
  std::vector<double> obj_;
  bool all_integer_obj_ = true;

  std::vector<int> fixed_;
  std::vector<int> clique_of_;
  std::vector<double> clique_max_scratch_;
  std::vector<char> clique_taken_scratch_;
  std::vector<int> clique_touched_;
  std::vector<std::vector<int>> var_constraints_;
  std::vector<double> min_act_;
  std::vector<double> max_act_;
  std::vector<int> order_;
  std::vector<TrailEntry> trail_;
  std::vector<int> queue_;

  double fixed_obj_ = 0.0;
  double root_bound_ = 0.0;

  bool has_incumbent_ = false;
  double best_obj_ = 0.0;
  std::vector<int> best_x_;
  std::vector<int> value_hint_;

  std::size_t nodes_ = 0;
  bool limits_hit_ = false;
};

}  // namespace

Solution solve(const Model& model, const BnbParams& params,
               const util::SolverBudget& budget) {
  obs::Span solve_span("ilp_bnb", model.num_vars());
  Solution total;
  total.status = SolveStatus::kOptimal;
  total.value.assign(static_cast<std::size_t>(model.num_vars()), 0);
  total.objective = 0.0;

  const bool warm = params.warm_start != nullptr &&
                    static_cast<int>(params.warm_start->size()) == model.num_vars();
  std::int64_t comp_index = 0;
  for (const auto& comp : split_components(model)) {
    std::vector<int> part;  // the component's part of the warm start
    for (const VarId v : comp.global_var) {
      if (warm) part.push_back((*params.warm_start)[static_cast<std::size_t>(v)]);
    }
    Solution sub;
    if (!budget.exhausted()) {
      obs::Span comp_span("ilp_bnb_component", comp_index);
      ComponentSolver solver(comp.model, params, budget);
      if (warm) solver.warm_start(part);
      sub = solver.run();
    } else if (comp.model.feasible(part)) {
      // A spent budget searches nothing more: the component keeps its warm
      // start, as one stopped at its first node would.
      sub.status = SolveStatus::kFeasible;
      sub.objective = comp.model.objective_value(part);
      sub.value = std::move(part);
    }
    ++comp_index;
    total.nodes_explored += sub.nodes_explored;
    if (sub.status == SolveStatus::kInfeasible || sub.status == SolveStatus::kUnknown) {
      total.status = sub.status;
      total.value.clear();
      total.objective = -std::numeric_limits<double>::infinity();
      return total;
    }
    if (sub.status == SolveStatus::kFeasible) total.status = SolveStatus::kFeasible;
    for (std::size_t local = 0; local < comp.global_var.size(); ++local) {
      total.value[static_cast<std::size_t>(comp.global_var[local])] =
          sub.value[local];
    }
    total.objective += sub.objective;
  }
  return total;
}

}  // namespace sadp::ilp
