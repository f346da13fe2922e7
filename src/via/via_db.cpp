#include "via/via_db.hpp"

#include <algorithm>
#include <string>

#include "util/status.hpp"

namespace sadp::via {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw FlowError(util::StatusCode::kInternal, what);
}

std::string point_str(grid::Point p) {
  return "(" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
}

}  // namespace

ViaDb::ViaDb(int width, int height, int num_via_layers)
    : width_(width),
      height_(height),
      layers_(num_via_layers),
      wwidth_(width + kWindowSize - 1),
      wheight_(height + kWindowSize - 1) {
  if (width <= 0 || height <= 0 || num_via_layers < 1) {
    throw FlowError(util::StatusCode::kInvalidInput,
                    "ViaDb needs positive dimensions, got " +
                        std::to_string(width) + "x" + std::to_string(height) +
                        " with " + std::to_string(num_via_layers) +
                        " via layers");
  }
  count_.assign(static_cast<std::size_t>(layers_) * width_ * height_, 0);
  const std::size_t windows =
      static_cast<std::size_t>(layers_) * wwidth_ * wheight_;
  mask_.assign(windows, 0);
  fvp_pos_.assign(windows, kNotFvp);
}

void ViaDb::check_slot(int via_layer, grid::Point p, const char* op) const {
  // These violations are always router bugs, never expected states, so they
  // fail loudly in every build type instead of corrupting the occupancy
  // array (the release-mode fate of the old assert()s).
  if (via_layer < 1 || via_layer > layers_) {
    fail(std::string("ViaDb::") + op + ": via layer " +
         std::to_string(via_layer) + " outside [1," + std::to_string(layers_) +
         "]");
  }
  if (!in_bounds(p)) {
    fail(std::string("ViaDb::") + op + ": point " + point_str(p) +
         " outside " + std::to_string(width_) + "x" + std::to_string(height_) +
         " grid");
  }
}

FvpWindow ViaDb::window_of(std::size_t wslot_index) const noexcept {
  const std::size_t per_layer = static_cast<std::size_t>(wwidth_) * wheight_;
  const int layer = static_cast<int>(wslot_index / per_layer) + 1;
  const std::size_t rest = wslot_index % per_layer;
  const int oy = static_cast<int>(rest / wwidth_) - (kWindowSize - 1);
  const int ox = static_cast<int>(rest % wwidth_) - (kWindowSize - 1);
  return FvpWindow{layer, {ox, oy}};
}

void ViaDb::update_windows_around(int via_layer, grid::Point p) {
  // The occupancy of cell p flipped: refresh the masks and FVP membership
  // of the 9 windows containing p.  All of them are in wslot range because
  // p is in the grid.
  const bool occupied = count_[slot(via_layer, p)] > 0;
  for (int oy = p.y - kWindowSize + 1; oy <= p.y; ++oy) {
    for (int ox = p.x - kWindowSize + 1; ox <= p.x; ++ox) {
      const std::size_t w = wslot(via_layer, {ox, oy});
      const WindowMask bit = WindowMask{1} << window_bit(p.x - ox, p.y - oy);
      const WindowMask mask =
          occupied ? static_cast<WindowMask>(mask_[w] | bit)
                   : static_cast<WindowMask>(mask_[w] & ~bit);
      mask_[w] = mask;
      const bool fvp_now = is_fvp(mask);
      const bool fvp_was = fvp_pos_[w] != kNotFvp;
      if (fvp_now && !fvp_was) {
        fvp_pos_[w] = static_cast<std::uint32_t>(fvp_list_.size());
        fvp_list_.push_back(static_cast<std::uint32_t>(w));
      } else if (!fvp_now && fvp_was) {
        const std::uint32_t pos = fvp_pos_[w];
        const std::uint32_t moved = fvp_list_.back();
        fvp_list_[pos] = moved;
        fvp_pos_[moved] = pos;
        fvp_list_.pop_back();
        fvp_pos_[w] = kNotFvp;
      }
    }
  }
}

void ViaDb::add(int via_layer, grid::Point p) {
  check_slot(via_layer, p, "add");
  auto& c = count_[slot(via_layer, p)];
  if (c == 255) {
    fail("ViaDb::add: reference count overflow at layer " +
         std::to_string(via_layer) + " " + point_str(p));
  }
  ++c;
  if (c == 1) update_windows_around(via_layer, p);
}

void ViaDb::remove(int via_layer, grid::Point p) {
  check_slot(via_layer, p, "remove");
  auto& c = count_[slot(via_layer, p)];
  if (c == 0) {
    fail("ViaDb::remove: no via recorded at layer " +
         std::to_string(via_layer) + " " + point_str(p));
  }
  --c;
  if (c == 0) update_windows_around(via_layer, p);
}

std::vector<grid::Point> ViaDb::locations(int via_layer) const {
  std::vector<grid::Point> out;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      if (has(via_layer, {x, y})) out.push_back({x, y});
    }
  }
  return out;
}

bool ViaDb::would_create_fvp(int via_layer, grid::Point p) const {
  ++fvp_cache_hits_;
  if (has(via_layer, p)) return in_fvp(via_layer, p);
  for (int oy = p.y - kWindowSize + 1; oy <= p.y; ++oy) {
    for (int ox = p.x - kWindowSize + 1; ox <= p.x; ++ox) {
      const WindowMask mask = static_cast<WindowMask>(
          mask_[wslot(via_layer, {ox, oy})] |
          (WindowMask{1} << window_bit(p.x - ox, p.y - oy)));
      if (is_fvp(mask)) return true;
    }
  }
  return false;
}

bool ViaDb::in_fvp(int via_layer, grid::Point p) const {
  ++fvp_cache_hits_;
  for (int oy = p.y - kWindowSize + 1; oy <= p.y; ++oy) {
    for (int ox = p.x - kWindowSize + 1; ox <= p.x; ++ox) {
      if (fvp_pos_[wslot(via_layer, {ox, oy})] != kNotFvp) return true;
    }
  }
  return false;
}

std::vector<FvpWindow> ViaDb::scan_fvps(int via_layer) const {
  std::vector<FvpWindow> out;
  for (const std::uint32_t w : fvp_list_) {
    const FvpWindow window = window_of(w);
    if (window.via_layer == via_layer) out.push_back(window);
  }
  // Deterministic row-major origin order, independent of insertion history.
  std::sort(out.begin(), out.end(), [](const FvpWindow& a, const FvpWindow& b) {
    if (a.origin.y != b.origin.y) return a.origin.y < b.origin.y;
    return a.origin.x < b.origin.x;
  });
  return out;
}

std::vector<FvpWindow> ViaDb::scan_all_fvps() const {
  std::vector<FvpWindow> out;
  out.reserve(fvp_list_.size());
  for (const std::uint32_t w : fvp_list_) out.push_back(window_of(w));
  // Layer-major, then row-major origin: the order of the old full scan.
  std::sort(out.begin(), out.end(), [](const FvpWindow& a, const FvpWindow& b) {
    if (a.via_layer != b.via_layer) return a.via_layer < b.via_layer;
    if (a.origin.y != b.origin.y) return a.origin.y < b.origin.y;
    return a.origin.x < b.origin.x;
  });
  return out;
}

int ViaDb::conflict_count(int via_layer, grid::Point p) const {
  int n = 0;
  for (const grid::Point d : kConflictOffsets) {
    const grid::Point q = p + d;
    if (in_bounds(q) && has(via_layer, q)) ++n;
  }
  return n;
}

}  // namespace sadp::via
