#include "ilp/components.hpp"

#include <utility>

#include "util/union_find.hpp"

namespace sadp::ilp {

std::vector<ModelComponent> split_components(const Model& model) {
  const int n = model.num_vars();
  util::UnionFind uf(n);
  for (const auto& c : model.constraints()) {
    for (std::size_t i = 1; i < c.terms.size(); ++i) {
      uf.unite(c.terms[0].var, c.terms[i].var);
    }
  }

  // Components in first-seen order, variables ascending: deterministic
  // output.
  std::vector<int> comp_of(static_cast<std::size_t>(n), -1);
  std::vector<int> local_of(static_cast<std::size_t>(n), -1);
  std::vector<ModelComponent> comps;
  for (std::vector<int>& group : uf.groups()) {
    ModelComponent& comp = comps.emplace_back();
    for (const int v : group) {
      comp_of[static_cast<std::size_t>(v)] = static_cast<int>(comps.size()) - 1;
      local_of[static_cast<std::size_t>(v)] = comp.model.add_var(model.var_name(v));
    }
    comp.global_var = std::move(group);
  }

  // Objective per component.
  for (auto& comp : comps) {
    std::vector<LinTerm> terms;
    for (std::size_t local = 0; local < comp.global_var.size(); ++local) {
      const double coef =
          model.objective()[static_cast<std::size_t>(comp.global_var[local])];
      if (coef != 0.0) terms.push_back({static_cast<VarId>(local), coef});
    }
    comp.model.set_objective(std::move(terms), model.maximize());
  }

  for (const auto& c : model.constraints()) {
    if (c.terms.empty()) continue;
    auto& comp =
        comps[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(c.terms[0].var)])];
    Constraint local;
    local.sense = c.sense;
    local.rhs = c.rhs;
    local.terms.reserve(c.terms.size());
    for (const auto& term : c.terms) {
      local.terms.push_back({local_of[static_cast<std::size_t>(term.var)], term.coef});
    }
    comp.model.add_constraint(std::move(local));
  }
  return comps;
}

}  // namespace sadp::ilp
