#include "ilp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sadp::ilp {

namespace {
constexpr double kEps = 1e-9;
constexpr double kBigM = 1e7;
/// Pivot cap; past half of it the entering rule switches to Bland's.
constexpr std::size_t kMaxIters = 20000;
}  // namespace

LpResult solve_lp_relaxation(const Model& model, const std::vector<int>* var_fixed) {
  const int n_total = model.num_vars();

  // Map free variables to dense LP columns; fixed variables fold into the
  // right-hand sides and an objective constant.
  std::vector<int> col_of(static_cast<std::size_t>(n_total), -1);
  std::vector<int> var_of_col;
  double obj_const = 0.0;
  for (int v = 0; v < n_total; ++v) {
    const int fixed = var_fixed != nullptr ? (*var_fixed)[static_cast<std::size_t>(v)] : -1;
    if (fixed < 0) {
      col_of[static_cast<std::size_t>(v)] = static_cast<int>(var_of_col.size());
      var_of_col.push_back(v);
    } else if (fixed == 1) {
      obj_const += model.objective()[static_cast<std::size_t>(v)];
    }
  }
  const int n = static_cast<int>(var_of_col.size());

  // Assemble rows: model constraints (with fixed variables folded in) plus
  // an upper-bound row x_j <= 1 per free variable.
  struct Row {
    std::vector<double> a;  // dense over free columns
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(model.constraints().size() + static_cast<std::size_t>(n));
  for (const auto& c : model.constraints()) {
    Row row{std::vector<double>(static_cast<std::size_t>(n), 0.0), c.sense, c.rhs};
    bool relevant = false;
    for (const auto& term : c.terms) {
      const int fixed =
          var_fixed != nullptr ? (*var_fixed)[static_cast<std::size_t>(term.var)] : -1;
      if (fixed < 0) {
        row.a[static_cast<std::size_t>(col_of[static_cast<std::size_t>(term.var)])] +=
            term.coef;
        relevant = true;
      } else {
        row.rhs -= term.coef * fixed;
      }
    }
    // Keep constant rows too so infeasible fixings are detected.
    if (!relevant) {
      const double lhs = 0.0;
      bool ok = true;
      switch (row.sense) {
        case Sense::kLe: ok = lhs <= row.rhs + 1e-6; break;
        case Sense::kGe: ok = lhs >= row.rhs - 1e-6; break;
        case Sense::kEq: ok = std::abs(lhs - row.rhs) <= 1e-6; break;
      }
      if (!ok) return LpResult{LpResult::Status::kInfeasible, 0.0, {}};
      continue;
    }
    rows.push_back(std::move(row));
  }
  for (int j = 0; j < n; ++j) {
    Row row{std::vector<double>(static_cast<std::size_t>(n), 0.0), Sense::kLe, 1.0};
    row.a[static_cast<std::size_t>(j)] = 1.0;
    rows.push_back(std::move(row));
  }

  const int m = static_cast<int>(rows.size());
  if (n == 0) {
    LpResult r;
    r.status = LpResult::Status::kOptimal;
    r.objective = obj_const;
    return r;
  }

  // Normalize to rhs >= 0 and count auxiliary columns.
  int num_slack = 0, num_art = 0;
  for (auto& row : rows) {
    if (row.rhs < 0) {
      for (auto& a : row.a) a = -a;
      row.rhs = -row.rhs;
      row.sense = row.sense == Sense::kLe   ? Sense::kGe
                  : row.sense == Sense::kGe ? Sense::kLe
                                            : Sense::kEq;
    }
    if (row.sense != Sense::kEq) ++num_slack;
    if (row.sense != Sense::kLe) ++num_art;
  }

  const int width = n + num_slack + num_art;  // total structural columns
  // Dense tableau: m rows x (width + 1) with rhs in the last column.
  std::vector<std::vector<double>> tab(
      static_cast<std::size_t>(m),
      std::vector<double>(static_cast<std::size_t>(width) + 1, 0.0));
  std::vector<double> cost(static_cast<std::size_t>(width), 0.0);
  std::vector<int> basis(static_cast<std::size_t>(m), -1);

  const double sign = model.maximize() ? 1.0 : -1.0;  // internally maximize
  for (int j = 0; j < n; ++j) {
    cost[static_cast<std::size_t>(j)] =
        sign * model.objective()[static_cast<std::size_t>(var_of_col[j])];
  }

  int next_slack = n;
  int next_art = n + num_slack;
  for (int i = 0; i < m; ++i) {
    auto& row = rows[static_cast<std::size_t>(i)];
    for (int j = 0; j < n; ++j) tab[i][static_cast<std::size_t>(j)] = row.a[static_cast<std::size_t>(j)];
    tab[i][static_cast<std::size_t>(width)] = row.rhs;
    switch (row.sense) {
      case Sense::kLe:
        tab[i][static_cast<std::size_t>(next_slack)] = 1.0;
        basis[static_cast<std::size_t>(i)] = next_slack++;
        break;
      case Sense::kGe:
        tab[i][static_cast<std::size_t>(next_slack)] = -1.0;
        ++next_slack;
        tab[i][static_cast<std::size_t>(next_art)] = 1.0;
        cost[static_cast<std::size_t>(next_art)] = -kBigM;
        basis[static_cast<std::size_t>(i)] = next_art++;
        break;
      case Sense::kEq:
        tab[i][static_cast<std::size_t>(next_art)] = 1.0;
        cost[static_cast<std::size_t>(next_art)] = -kBigM;
        basis[static_cast<std::size_t>(i)] = next_art++;
        break;
    }
  }

  // Reduced costs: z_j = cost[j] - sum_i cost[basis[i]] * tab[i][j].
  auto reduced_cost = [&](int j) {
    double z = cost[static_cast<std::size_t>(j)];
    for (int i = 0; i < m; ++i) {
      const double cb = cost[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])];
      if (cb != 0.0) z -= cb * tab[i][static_cast<std::size_t>(j)];
    }
    return z;
  };

  LpResult result;
  std::size_t iter = 0;
  for (; iter < kMaxIters; ++iter) {
    // Entering column: Dantzig rule, Bland fallback late in the search.
    const bool bland = iter > kMaxIters / 2;
    int enter = -1;
    double best = kEps;
    for (int j = 0; j < width; ++j) {
      const double z = reduced_cost(j);
      if (z > (bland ? kEps : best)) {
        enter = j;
        if (bland) break;
        best = z;
      }
    }
    if (enter < 0) break;  // optimal

    // Ratio test.
    int leave = -1;
    double best_ratio = 0.0;
    for (int i = 0; i < m; ++i) {
      const double a = tab[i][static_cast<std::size_t>(enter)];
      if (a > kEps) {
        const double ratio = tab[i][static_cast<std::size_t>(width)] / a;
        if (leave < 0 || ratio < best_ratio - kEps ||
            (std::abs(ratio - best_ratio) <= kEps &&
             basis[static_cast<std::size_t>(i)] < basis[static_cast<std::size_t>(leave)])) {
          leave = i;
          best_ratio = ratio;
        }
      }
    }
    if (leave < 0) {
      result.status = LpResult::Status::kUnbounded;
      return result;
    }

    // Pivot.
    const double pivot = tab[leave][static_cast<std::size_t>(enter)];
    for (double& v : tab[leave]) v /= pivot;
    for (int i = 0; i < m; ++i) {
      if (i == leave) continue;
      const double factor = tab[i][static_cast<std::size_t>(enter)];
      if (std::abs(factor) <= kEps) continue;
      for (int j = 0; j <= width; ++j) {
        tab[i][static_cast<std::size_t>(j)] -=
            factor * tab[leave][static_cast<std::size_t>(j)];
      }
    }
    basis[static_cast<std::size_t>(leave)] = enter;
  }
  if (iter >= kMaxIters) {
    result.status = LpResult::Status::kIterLimit;
    return result;
  }

  // Artificials still basic at positive level => infeasible.
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<std::size_t>(i)] >= n + num_slack &&
        tab[i][static_cast<std::size_t>(width)] > 1e-6) {
      result.status = LpResult::Status::kInfeasible;
      return result;
    }
  }

  std::vector<double> x(static_cast<std::size_t>(n_total), 0.0);
  if (var_fixed != nullptr) {
    for (int v = 0; v < n_total; ++v) {
      if ((*var_fixed)[static_cast<std::size_t>(v)] == 1) x[static_cast<std::size_t>(v)] = 1.0;
    }
  }
  double obj = 0.0;
  for (int i = 0; i < m; ++i) {
    const int b = basis[static_cast<std::size_t>(i)];
    if (b < n) {
      x[static_cast<std::size_t>(var_of_col[static_cast<std::size_t>(b)])] =
          tab[i][static_cast<std::size_t>(width)];
    }
  }
  for (int v = 0; v < n_total; ++v) {
    obj += model.objective()[static_cast<std::size_t>(v)] * x[static_cast<std::size_t>(v)];
  }

  result.status = LpResult::Status::kOptimal;
  result.objective = obj;
  result.x = std::move(x);
  return result;
}

}  // namespace sadp::ilp
