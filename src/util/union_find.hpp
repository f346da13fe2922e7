// Disjoint sets over the integers 0..n-1, with path halving.
//
// The ILP splits a model into variable-sharing components with it
// (ilp/components.cpp), the exact DVI solver splits the vias into
// interacting clusters (core/dvi_exact.cpp), and the mask DRC groups
// touching shapes into patterns (sadp/mask.cpp).
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

namespace sadp::util {

class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

  /// The sets, each in ascending order, ordered by their smallest member
  /// (the order a scan from 0 first sees them in).
  [[nodiscard]] std::vector<std::vector<int>> groups() {
    std::vector<std::vector<int>> out;
    std::vector<int> group_of(parent_.size(), -1);
    for (int x = 0; x < static_cast<int>(parent_.size()); ++x) {
      int& group = group_of[static_cast<std::size_t>(find(x))];
      if (group < 0) {
        group = static_cast<int>(out.size());
        out.emplace_back();
      }
      out[static_cast<std::size_t>(group)].push_back(x);
    }
    return out;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace sadp::util
