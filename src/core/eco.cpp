#include "core/eco.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sadp::core {

namespace {

util::Status bad(std::string message) {
  return util::Status::invalid_input(std::move(message));
}

std::string point_text(grid::Point p) {
  return "(" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
}

bool in_rect(grid::Point p, const std::pair<grid::Point, grid::Point>& rect) {
  return p.x >= rect.first.x && p.x <= rect.second.x && p.y >= rect.first.y &&
         p.y <= rect.second.y;
}

}  // namespace

const char* eco_change_kind_name(EcoChange::Kind kind) noexcept {
  switch (kind) {
    case EcoChange::Kind::kAddNet: return "add_net";
    case EcoChange::Kind::kRemoveNet: return "remove_net";
    case EcoChange::Kind::kMovePin: return "move_pin";
    case EcoChange::Kind::kAddBlockage: return "add_blockage";
  }
  return "?";
}

std::optional<EcoChange::Kind> parse_eco_change_kind(const std::string& name) {
  if (name == "add_net") return EcoChange::Kind::kAddNet;
  if (name == "remove_net") return EcoChange::Kind::kRemoveNet;
  if (name == "move_pin") return EcoChange::Kind::kMovePin;
  if (name == "add_blockage") return EcoChange::Kind::kAddBlockage;
  return std::nullopt;
}

util::Status apply_eco_changes(const netlist::PlacedNetlist& base,
                               const std::vector<EcoChange>& changes,
                               EcoEditOutcome* out) {
  *out = EcoEditOutcome{};
  const auto in_bounds = [&base](grid::Point p) {
    return p.x >= 0 && p.x < base.width && p.y >= 0 && p.y < base.height;
  };

  // Working copy under base ids; the edited netlist is assembled at the end
  // so removals never shift the ids later changes refer to.
  std::vector<netlist::Net> nets = base.nets;
  std::vector<bool> removed(nets.size(), false);
  std::vector<bool> moved(nets.size(), false);
  std::vector<netlist::Net> added;
  int add_counter = 0;

  for (std::size_t i = 0; i < changes.size(); ++i) {
    const EcoChange& change = changes[i];
    const std::string where = "change " + std::to_string(i) + " (" +
                              eco_change_kind_name(change.kind) + "): ";
    switch (change.kind) {
      case EcoChange::Kind::kRemoveNet: {
        if (change.net < 0 ||
            static_cast<std::size_t>(change.net) >= nets.size()) {
          return bad(where + "net id " + std::to_string(change.net) +
                     " out of range");
        }
        if (removed[static_cast<std::size_t>(change.net)]) {
          return bad(where + "net " + std::to_string(change.net) +
                     " already removed");
        }
        removed[static_cast<std::size_t>(change.net)] = true;
        break;
      }
      case EcoChange::Kind::kMovePin: {
        if (change.net < 0 ||
            static_cast<std::size_t>(change.net) >= nets.size() ||
            removed[static_cast<std::size_t>(change.net)]) {
          return bad(where + "net id " + std::to_string(change.net) +
                     " out of range or removed");
        }
        auto& pins = nets[static_cast<std::size_t>(change.net)].pins;
        if (change.pin < 0 || static_cast<std::size_t>(change.pin) >= pins.size()) {
          return bad(where + "pin index " + std::to_string(change.pin) +
                     " out of range");
        }
        if (!in_bounds(change.to)) {
          return bad(where + "target " + point_text(change.to) +
                     " outside the grid");
        }
        const grid::Point old = pins[static_cast<std::size_t>(change.pin)].at;
        out->dirty_rects.push_back({old, old});
        out->dirty_rects.push_back({change.to, change.to});
        pins[static_cast<std::size_t>(change.pin)].at = change.to;
        moved[static_cast<std::size_t>(change.net)] = true;
        break;
      }
      case EcoChange::Kind::kAddNet: {
        if (change.pins.size() < 2) {
          return bad(where + "a net needs at least 2 pins");
        }
        netlist::Net net;
        net.name = change.name.empty()
                       ? "eco_add_" + std::to_string(add_counter)
                       : change.name;
        for (const grid::Point p : change.pins) {
          if (!in_bounds(p)) {
            return bad(where + "pin " + point_text(p) + " outside the grid");
          }
          net.pins.push_back(netlist::Pin{p});
          out->dirty_rects.push_back({p, p});
        }
        added.push_back(std::move(net));
        ++add_counter;
        break;
      }
      case EcoChange::Kind::kAddBlockage: {
        if (change.rect_lo.x > change.rect_hi.x ||
            change.rect_lo.y > change.rect_hi.y) {
          return bad(where + "rect " + point_text(change.rect_lo) + ".." +
                     point_text(change.rect_hi) + " is not normalized");
        }
        if (!in_bounds(change.rect_lo) || !in_bounds(change.rect_hi)) {
          return bad(where + "rect " + point_text(change.rect_lo) + ".." +
                     point_text(change.rect_hi) + " outside the grid");
        }
        out->dirty_rects.push_back({change.rect_lo, change.rect_hi});
        out->blockage_rects.push_back({change.rect_lo, change.rect_hi});
        break;
      }
    }
  }

  out->edited.name = base.name;
  out->edited.width = base.width;
  out->edited.height = base.height;
  out->edited.num_metal_layers = base.num_metal_layers;
  out->base_to_new.assign(nets.size(), grid::kNoNet);
  grid::NetId next = 0;
  for (std::size_t g = 0; g < nets.size(); ++g) {
    if (removed[g]) continue;
    netlist::Net net = nets[g];
    net.id = next;
    out->base_to_new[g] = next;
    if (moved[g]) out->changed_nets.push_back(next);
    out->edited.nets.push_back(std::move(net));
    ++next;
  }
  for (netlist::Net& net : added) {
    net.id = next;
    out->changed_nets.push_back(next);
    out->edited.nets.push_back(std::move(net));
    ++next;
  }
  if (out->edited.nets.empty()) {
    return bad("the change list removes every net");
  }

  // A blockage occupies every routable-layer cell of its rect, and a pin
  // stub needs the metal-2 cell above the pin: a covered pin could never
  // route, so the request is malformed rather than merely hard.
  for (const auto& rect : out->blockage_rects) {
    for (const auto& net : out->edited.nets) {
      for (const auto& pin : net.pins) {
        if (in_rect(pin.at, rect)) {
          return bad("blockage " + point_text(rect.first) + ".." +
                     point_text(rect.second) + " covers a pin of net " +
                     std::to_string(net.id) + " at " + point_text(pin.at));
        }
      }
    }
  }
  return util::Status::ok();
}

std::string solution_fingerprint(const RoutedSolution& solution) {
  const std::uint64_t hash = util::fnv1a(solution_to_text(solution));
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

util::Status run_eco_flow(const netlist::PlacedNetlist& base,
                          const RoutedSolution& base_solution,
                          const std::vector<EcoChange>& changes,
                          const FlowConfig& config, EcoRun* out) {
  *out = EcoRun{};
  out->summary.changes = static_cast<int>(changes.size());
  out->summary.base_fingerprint = solution_fingerprint(base_solution);

  util::Timer load_timer;
  obs::Span load_span("eco.load");

  std::string nerr;
  if (!base.valid(&nerr)) return bad("base netlist: " + nerr);
  if (base_solution.width != base.width ||
      base_solution.height != base.height ||
      base_solution.num_metal_layers != base.num_metal_layers) {
    return bad("base solution '" + base_solution.name + "' is " +
               std::to_string(base_solution.width) + "x" +
               std::to_string(base_solution.height) + "x" +
               std::to_string(base_solution.num_metal_layers) +
               " but the base netlist is " + std::to_string(base.width) + "x" +
               std::to_string(base.height) + "x" +
               std::to_string(base.num_metal_layers));
  }
  if (base_solution.nets.size() != base.nets.size()) {
    return bad("base solution has " + std::to_string(base_solution.nets.size()) +
               " nets but the base netlist has " +
               std::to_string(base.nets.size()));
  }
  if (base_solution.style != config.options.style) {
    return bad(std::string("base solution style ") +
               grid::style_name(base_solution.style) +
               " does not match the requested style " +
               grid::style_name(config.options.style));
  }

  EcoEditOutcome edit;
  if (util::Status status = apply_eco_changes(base, changes, &edit);
      !status.is_ok()) {
    return status;
  }
  if (!edit.edited.valid(&nerr)) return bad("edited netlist: " + nerr);

  // Dirty-net computation (DESIGN.md section 16): changed nets are dirty by
  // construction; a surviving base net is dirty when any of its base metal
  // points or vias (x/y, any layer) lies inside a dirty rect, or when the
  // base never routed it.
  const std::size_t total = edit.edited.nets.size();
  std::vector<char> dirty(total, 0);
  for (const grid::NetId id : edit.changed_nets) {
    dirty[static_cast<std::size_t>(id)] = 1;
  }
  const auto touches_dirty_rect = [&edit](const RoutedNet& net) {
    for (const auto& rect : edit.dirty_rects) {
      for (const auto& [key, arms] : net.metal()) {
        if (in_rect(key_point(key), rect)) return true;
      }
      for (const auto& via : net.vias()) {
        if (in_rect(via.at, rect)) return true;
      }
    }
    return false;
  };
  for (std::size_t g = 0; g < base.nets.size(); ++g) {
    const grid::NetId new_id = edit.base_to_new[g];
    if (new_id == grid::kNoNet) continue;
    if (dirty[static_cast<std::size_t>(new_id)]) continue;
    const RoutedNet& base_net = base_solution.nets[g];
    if (!base_net.routed() || touches_dirty_rect(base_net)) {
      dirty[static_cast<std::size_t>(new_id)] = 1;
    }
  }

  out->flow.result.benchmark = edit.edited.name;
  out->flow.router = std::make_unique<SadpRouter>(edit.edited, config.options);
  SadpRouter& router = *out->flow.router;

  // Warm seeding: clean survivors adopt their base geometry (occupancy,
  // cost records and FVP windows rebuild as they apply); dirty nets stay on
  // their fresh pin stubs until run_eco rips and re-routes them.
  for (std::size_t g = 0; g < base.nets.size(); ++g) {
    const grid::NetId new_id = edit.base_to_new[g];
    if (new_id == grid::kNoNet || dirty[static_cast<std::size_t>(new_id)]) {
      continue;
    }
    router.adopt_base_net(new_id, base_solution.nets[g]);
  }

  // Blockages become immovable obstacle nets with ids past the netlist
  // range: the maze prices their cells as occupied and rip-up never selects
  // them.  Metal-only on the routable layers; no vias, so no FVP windows.
  grid::NetId next_obstacle = static_cast<grid::NetId>(total);
  for (const auto& rect : edit.blockage_rects) {
    RoutedNet blockage(next_obstacle++);
    for (int layer = 2; layer <= edit.edited.num_metal_layers; ++layer) {
      for (std::int32_t y = rect.first.y; y <= rect.second.y; ++y) {
        for (std::int32_t x = rect.first.x; x <= rect.second.x; ++x) {
          blockage.add_metal(layer, {x, y}, 0);
        }
      }
    }
    router.add_obstacle(blockage);
  }

  std::vector<grid::NetId> dirty_ids;
  for (std::size_t i = 0; i < total; ++i) {
    if (dirty[i]) dirty_ids.push_back(static_cast<grid::NetId>(i));
  }

  load_span.set_str("dirty_nets", std::to_string(dirty_ids.size()));
  load_span.end();
  out->summary.load_seconds = load_timer.seconds();
  out->summary.nets_total = static_cast<int>(total);

  const util::CancelToken& cancel = config.options.cancel;
  out->flow.result.routing = router.run_eco(dirty_ids);

  // The ripped set the delta summary reports: the dirty nets plus any
  // adopted net the negotiation itself had to rip (rip counts start at zero
  // after adoption, so rip_count > 0 means "touched after warm seeding").
  for (std::size_t i = 0; i < total; ++i) {
    if (dirty[i] || router.nets()[i].rip_count() > 0) {
      out->summary.ripped_ids.push_back(static_cast<grid::NetId>(i));
    }
  }
  out->summary.nets_ripped = static_cast<int>(out->summary.ripped_ids.size());
  out->summary.nets_untouched =
      static_cast<int>(total) - out->summary.nets_ripped;

  if (cancel.stop_requested()) {
    out->flow.status = cancel.status("ECO routing");
    return util::Status::ok();
  }

  // Incremental DVI: the problem is built from the re-routed subset only
  // (untouched nets kept their base DVI opportunities), so the solve cost
  // scales with the delta.  Feasibility still checks the full grid.
  run_dvi_tail(out->flow, config, &out->summary.ripped_ids,
               "ECO post-routing DVI");
  return util::Status::ok();
}

}  // namespace sadp::core
