#include "sadp/mask.hpp"

#include <algorithm>

#include "util/union_find.hpp"

namespace sadp::litho {

int axis_gap(int a_lo, int a_hi, int b_lo, int b_hi) noexcept {
  return std::max(b_lo - a_hi, a_lo - b_hi);
}

int rect_spacing(const MaskRect& a, const MaskRect& b) noexcept {
  const int gx = axis_gap(a.lo_x, a.hi_x, b.lo_x, b.hi_x);
  const int gy = axis_gap(a.lo_y, a.hi_y, b.lo_y, b.hi_y);
  if (gx < 0 && gy < 0) return 0;            // overlap
  if (gx >= 0 && gy >= 0) return std::max(gx, gy);  // diagonal: corner rule
  return std::max(gx, gy);
}

bool rects_overlap(const MaskRect& a, const MaskRect& b) noexcept {
  return axis_gap(a.lo_x, a.hi_x, b.lo_x, b.hi_x) < 0 &&
         axis_gap(a.lo_y, a.hi_y, b.lo_y, b.hi_y) < 0;
}

std::string DrcViolation::to_string() const {
  auto rect_str = [](const MaskRect& r) {
    return "(" + std::to_string(r.lo_x) + "," + std::to_string(r.lo_y) + ")-(" +
           std::to_string(r.hi_x) + "," + std::to_string(r.hi_y) + ")";
  };
  if (kind == Kind::kMinWidth) return "min-width " + rect_str(a);
  return "min-spacing " + rect_str(a) + " vs " + rect_str(b);
}

std::vector<DrcViolation> check_mask(const Mask& mask, int min_width,
                                     int min_spacing) {
  std::vector<DrcViolation> out;
  const auto& rects = mask.rects;

  for (const auto& r : rects) {
    if (r.empty()) continue;
    if (std::min(r.width(), r.height()) < min_width) {
      out.push_back({DrcViolation::Kind::kMinWidth, r, {}});
    }
  }

  // Group shapes that touch (spacing 0) into single patterns; spacing rules
  // apply only between different patterns.  O(n^2) pair scan sorted by x to
  // prune; mask sizes in this code base are small enough.
  std::vector<std::size_t> order(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rects[a].lo_x < rects[b].lo_x;
  });

  util::UnionFind groups(static_cast<int>(rects.size()));
  for (std::size_t ii = 0; ii < order.size(); ++ii) {
    const auto i = order[ii];
    for (std::size_t jj = ii + 1; jj < order.size(); ++jj) {
      const auto j = order[jj];
      if (rects[j].lo_x - rects[i].hi_x >= min_spacing) break;
      if (rect_spacing(rects[i], rects[j]) == 0) {
        groups.unite(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  for (std::size_t ii = 0; ii < order.size(); ++ii) {
    const auto i = order[ii];
    for (std::size_t jj = ii + 1; jj < order.size(); ++jj) {
      const auto j = order[jj];
      if (rects[j].lo_x - rects[i].hi_x >= min_spacing) break;
      if (groups.find(static_cast<int>(i)) == groups.find(static_cast<int>(j))) {
        continue;
      }
      const int spacing = rect_spacing(rects[i], rects[j]);
      if (spacing > 0 && spacing < min_spacing) {
        out.push_back({DrcViolation::Kind::kMinSpacing, rects[i], rects[j]});
      }
    }
  }
  return out;
}

}  // namespace sadp::litho
