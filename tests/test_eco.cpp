// Incremental ECO re-route: the differential contract (warm rip-up vs a
// full re-route), the change-list edit rules, the sadp.flow_delta.v1 wire
// layer, and the service round trip (server demux, result cache, schemas
// probe).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/flow_delta.hpp"
#include "core/eco.hpp"
#include "core/flow.hpp"
#include "core/solution_io.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace sadp;

netlist::BenchSpec tiny_spec(const char* name, int side, int nets) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = side;
  spec.height = side;
  spec.num_nets = nets;
  return spec;
}

core::FlowConfig heuristic_config() {
  core::FlowConfig config;
  config.options.style = grid::SadpStyle::kSim;
  config.dvi_method = core::DviMethod::kHeuristic;
  return config;
}

/// Geometry of one net, order-independent: sorted metal entries + vias.
std::string canonical_net(const core::RoutedNet& net) {
  std::vector<std::tuple<int, int, int, int>> metal;
  for (const auto& [key, arms] : net.metal()) {
    const grid::Point p = core::key_point(key);
    metal.emplace_back(core::key_layer(key), p.x, p.y, static_cast<int>(arms));
  }
  std::sort(metal.begin(), metal.end());
  std::vector<core::NetVia> vias = net.vias();
  std::sort(vias.begin(), vias.end());
  std::string out;
  for (const auto& [layer, x, y, arms] : metal) {
    out += 'm' + std::to_string(layer) + ':' + std::to_string(x) + ',' +
           std::to_string(y) + '/' + std::to_string(arms) + ';';
  }
  for (const auto& via : vias) {
    out += 'v' + std::to_string(via.via_layer) + ':' +
           std::to_string(via.at.x) + ',' + std::to_string(via.at.y) +
           (via.is_pin_via ? "p" : "") + ";";
  }
  return out;
}

/// An empty cell rect of the given size no pin touches (for blockages).
std::pair<grid::Point, grid::Point> free_rect(
    const netlist::PlacedNetlist& instance, int size) {
  std::set<std::pair<int, int>> pins;
  for (const auto& net : instance.nets) {
    for (const auto& pin : net.pins) pins.insert({pin.at.x, pin.at.y});
  }
  for (int y = 1; y + size < instance.height - 1; ++y) {
    for (int x = 1; x + size < instance.width - 1; ++x) {
      bool clear = true;
      for (int dy = 0; clear && dy <= size; ++dy) {
        for (int dx = 0; clear && dx <= size; ++dx) {
          clear = pins.count({x + dx, y + dy}) == 0;
        }
      }
      if (clear) return {{x, y}, {x + size, y + size}};
    }
  }
  return {{1, 1}, {1 + size, 1 + size}};
}

struct EcoFixture {
  netlist::PlacedNetlist base;
  core::RoutedSolution solution;
  core::FlowConfig config = heuristic_config();

  explicit EcoFixture(const char* name, int side = 48, int nets = 20) {
    base = netlist::generate(tiny_spec(name, side, nets));
    core::FlowRun run = core::run_flow(base, config);
    EXPECT_TRUE(run.status.is_ok());
    EXPECT_TRUE(run.result.routing.routed_all);
    solution = core::capture_solution(base.name, run.router->routing_grid(),
                                      config.options.style,
                                      run.router->nets());
  }

  /// A pin move of `net` to a neighboring cell (min_pin_spacing keeps the
  /// target clear of other pins).
  core::EcoChange move_pin(int net, int pin = 0) const {
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kMovePin;
    change.net = net;
    change.pin = pin;
    const grid::Point at =
        base.nets[static_cast<std::size_t>(net)].pins[static_cast<std::size_t>(pin)].at;
    change.to = at.x + 1 < base.width ? grid::Point{at.x + 1, at.y}
                                      : grid::Point{at.x - 1, at.y};
    return change;
  }
};

// ---------------------------------------------------------------------------
// Differential contract: the ECO re-route must be as good as a full one.

TEST(EcoFlow, RipsExactlyDirtyNetsKeepsRestBitIdenticalAndValidates) {
  const EcoFixture fx("eco_diff");
  const std::vector<core::EcoChange> changes = {
      fx.move_pin(3), fx.move_pin(11, 1),
      [&] {
        core::EcoChange blockage;
        blockage.kind = core::EcoChange::Kind::kAddBlockage;
        std::tie(blockage.rect_lo, blockage.rect_hi) = free_rect(fx.base, 2);
        return blockage;
      }()};

  core::EcoEditOutcome edit;
  ASSERT_TRUE(core::apply_eco_changes(fx.base, changes, &edit).is_ok());

  core::EcoRun eco;
  ASSERT_TRUE(
      core::run_eco_flow(fx.base, fx.solution, changes, fx.config, &eco)
          .is_ok());
  ASSERT_TRUE(eco.flow.status.is_ok());
  EXPECT_TRUE(eco.flow.result.routing.routed_all);
  EXPECT_EQ(eco.summary.nets_total, fx.base.num_nets());
  EXPECT_EQ(eco.summary.changes, 3);

  // Expected dirty set, recomputed independently from the documented rule:
  // changed nets, plus any surviving net whose base geometry touches a
  // dirty rect.
  std::set<grid::NetId> expected_dirty(edit.changed_nets.begin(),
                                       edit.changed_nets.end());
  const auto in_rect = [](grid::Point p,
                          const std::pair<grid::Point, grid::Point>& r) {
    return p.x >= r.first.x && p.x <= r.second.x && p.y >= r.first.y &&
           p.y <= r.second.y;
  };
  for (std::size_t g = 0; g < fx.base.nets.size(); ++g) {
    const grid::NetId new_id = edit.base_to_new[g];
    if (new_id == grid::kNoNet) continue;
    const core::RoutedNet& net = fx.solution.nets[g];
    for (const auto& rect : edit.dirty_rects) {
      bool touches = false;
      for (const auto& [key, arms] : net.metal()) {
        if (in_rect(core::key_point(key), rect)) touches = true;
      }
      for (const auto& via : net.vias()) {
        if (in_rect(via.at, rect)) touches = true;
      }
      if (touches) expected_dirty.insert(new_id);
    }
  }

  // ripped_ids = dirty set plus any adopted net negotiation itself ripped
  // (rip_count > 0 after warm seeding); every dirty net must be in it.
  const std::set<grid::NetId> ripped(eco.summary.ripped_ids.begin(),
                                     eco.summary.ripped_ids.end());
  for (const grid::NetId id : expected_dirty) {
    EXPECT_TRUE(ripped.count(id)) << "dirty net " << id << " was not ripped";
  }
  for (const grid::NetId id : ripped) {
    EXPECT_TRUE(
        expected_dirty.count(id) ||
        eco.flow.router->nets()[static_cast<std::size_t>(id)].rip_count() > 0)
        << "net " << id << " ripped without cause";
  }
  EXPECT_EQ(eco.summary.nets_ripped + eco.summary.nets_untouched,
            eco.summary.nets_total);
  EXPECT_TRUE(std::is_sorted(eco.summary.ripped_ids.begin(),
                             eco.summary.ripped_ids.end()));

  // Untouched nets keep their base geometry bit-identically.
  for (std::size_t g = 0; g < fx.base.nets.size(); ++g) {
    const grid::NetId new_id = edit.base_to_new[g];
    if (new_id == grid::kNoNet || ripped.count(new_id)) continue;
    EXPECT_EQ(canonical_net(
                  eco.flow.router->nets()[static_cast<std::size_t>(new_id)]),
              canonical_net(fx.solution.nets[g]))
        << "untouched net " << g << " drifted";
  }

  // The ECO result passes the same validators as a full route, and a full
  // re-route of the edited netlist agrees on the clean status.
  const auto eco_issues =
      core::validate_routing(*eco.flow.router, eco.edited, true);
  EXPECT_TRUE(eco_issues.empty())
      << (eco_issues.empty() ? "" : eco_issues.front().what);
  const core::FlowRun full = core::run_flow(edit.edited, fx.config);
  ASSERT_TRUE(full.status.is_ok());
  EXPECT_EQ(full.result.routing.routed_all,
            eco.flow.result.routing.routed_all);
  EXPECT_EQ(core::validate_routing(*full.router, edit.edited, true).empty(),
            eco_issues.empty());
}

TEST(EcoFlow, RemoveNetFreesGeometryWithoutRippingSurvivors) {
  const EcoFixture fx("eco_remove");
  core::EcoChange removal;
  removal.kind = core::EcoChange::Kind::kRemoveNet;
  removal.net = 5;

  core::EcoRun eco;
  ASSERT_TRUE(
      core::run_eco_flow(fx.base, fx.solution, {removal}, fx.config, &eco)
          .is_ok());
  ASSERT_TRUE(eco.flow.status.is_ok());
  EXPECT_EQ(eco.summary.nets_total, fx.base.num_nets() - 1);
  // Freed space is not dirty: no survivor needs a re-route.
  EXPECT_EQ(eco.summary.nets_ripped, 0);
  EXPECT_EQ(eco.summary.nets_untouched, fx.base.num_nets() - 1);
  EXPECT_TRUE(
      core::validate_routing(*eco.flow.router, eco.edited, true).empty());
}

TEST(EcoEdits, RejectsInconsistentChangeLists) {
  const netlist::PlacedNetlist base =
      netlist::generate(tiny_spec("eco_reject", 32, 8));
  core::EcoEditOutcome edit;
  const auto rejects = [&](core::EcoChange change) {
    const util::Status status = core::apply_eco_changes(base, {change}, &edit);
    EXPECT_FALSE(status.is_ok());
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  };

  core::EcoChange change;
  change.kind = core::EcoChange::Kind::kRemoveNet;
  change.net = 99;  // out-of-range net id
  rejects(change);

  change.net = 2;  // double removal
  const util::Status twice =
      core::apply_eco_changes(base, {change, change}, &edit);
  EXPECT_EQ(twice.code(), util::StatusCode::kInvalidInput);

  change = core::EcoChange{};
  change.kind = core::EcoChange::Kind::kMovePin;
  change.net = 0;
  change.pin = 99;  // pin index out of range
  change.to = {1, 1};
  rejects(change);

  change.pin = 0;
  change.to = {-3, 1};  // out of bounds
  rejects(change);

  change = core::EcoChange{};
  change.kind = core::EcoChange::Kind::kAddBlockage;
  change.rect_lo = {9, 9};
  change.rect_hi = {4, 4};  // degenerate rect
  rejects(change);

  change.rect_lo = base.nets[0].pins[0].at;  // blockage covering a pin
  change.rect_hi = change.rect_lo;
  rejects(change);
}

// ---------------------------------------------------------------------------
// Wire layer.

api::FlowDeltaRequest sample_request() {
  api::FlowDeltaRequest request;
  request.base.label = "eco_wire";
  request.base.spec = tiny_spec("eco_wire", 32, 8);
  request.base.dvi_method = core::DviMethod::kHeuristic;
  request.base_solution = "solution fake 32 32 3 SIM 0\n";
  core::EcoChange move;
  move.kind = core::EcoChange::Kind::kMovePin;
  move.net = 3;
  move.pin = 1;
  move.to = {10, 12};
  core::EcoChange add;
  add.kind = core::EcoChange::Kind::kAddNet;
  add.name = "patch";
  add.pins = {{2, 2}, {8, 3}};
  core::EcoChange remove;
  remove.kind = core::EcoChange::Kind::kRemoveNet;
  remove.net = 7;
  core::EcoChange blockage;
  blockage.kind = core::EcoChange::Kind::kAddBlockage;
  blockage.rect_lo = {4, 4};
  blockage.rect_hi = {9, 9};
  request.changes = {move, add, remove, blockage};
  return request;
}

TEST(DeltaWire, SerializeParseRoundTripIsByteIdentical) {
  api::FlowDeltaRequest request = sample_request();
  api::ensure_delta_trace_context(&request);
  const std::string line = api::serialize_delta_request(request);

  std::string error;
  const auto parsed = api::parse_delta_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(api::serialize_delta_request(*parsed), line);
  EXPECT_EQ(parsed->changes.size(), 4u);
  EXPECT_EQ(parsed->changes[0].kind, core::EcoChange::Kind::kMovePin);
  EXPECT_EQ(parsed->changes[1].name, "patch");
  EXPECT_EQ(parsed->trace_id, request.trace_id);
  EXPECT_EQ(parsed->base.label, "eco_wire");
}

TEST(DeltaWire, ParserRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(api::parse_delta_request("{}", &error).has_value());
  EXPECT_FALSE(
      api::parse_delta_request(
          R"({"schema":"sadp.flow_request.v1","base":{}})", &error)
          .has_value());
  EXPECT_FALSE(
      api::parse_delta_request(
          R"({"schema":"sadp.flow_delta.v1","base":{"label":"x","benchmark":"ecc"},"changes":[{"op":"teleport"}]})",
          &error)
          .has_value());
  EXPECT_NE(error.find("change 0"), std::string::npos) << error;
}

TEST(DeltaWire, ParserRejectsNonIntegralAndOutOfRangeNumbers) {
  // Wire numbers are doubles; a cast of 1e30 or 0.5 to an int was undefined
  // behaviour before the checked narrowing.
  const std::string head =
      R"({"schema":"sadp.flow_delta.v1","base":{"label":"x","benchmark":"ecc"},"changes":[)";
  for (const char* change : {
           R"({"op":"remove_net","net":1e30})",
           R"({"op":"remove_net","net":-1e30})",
           R"({"op":"remove_net","net":2.5})",
           R"({"op":"move_pin","net":1,"pin":4294967296,"to":[0,0]})",
           R"({"op":"move_pin","net":1,"pin":0,"to":[1e30,0]})",
           R"({"op":"move_pin","net":1,"pin":0,"to":[0,0.5]})",
           R"({"op":"add_net","pins":[[0,0],[1,-3e9]]})",
           R"({"op":"add_blockage","rect":[0,0,1e300,1]})",
           R"({"op":"add_blockage","rect":[0,0,"1",1]})",
       }) {
    std::string error;
    EXPECT_FALSE(
        api::parse_delta_request(head + change + "]}", &error).has_value())
        << change;
    EXPECT_NE(error.find("must be an integer"), std::string::npos) << error;
  }
  std::string error;
  EXPECT_FALSE(api::parse_delta_request(
                   R"({"schema":"sadp.flow_delta.v1","sent_unix_us":1e300,"base":{"benchmark":"ecc"}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("sent_unix_us"), std::string::npos) << error;

  // The ends of the int range still parse.
  const auto edge = api::parse_delta_request(
      head +
          R"({"op":"move_pin","net":2147483647,"pin":0,"to":[-2147483648,2147483647]}]})",
      &error);
  ASSERT_TRUE(edge.has_value()) << error;
  EXPECT_EQ(edge->changes[0].net, 2147483647);
  EXPECT_EQ(edge->changes[0].to.x, -2147483647 - 1);
}

TEST(DeltaWire, ChangeSpecsParseWholeIntsOnly) {
  // The good form of each op, in flag order.
  std::vector<core::EcoChange> changes;
  ASSERT_TRUE(api::parse_change_specs("3,1,10,12;4,0,-2,7", "5",
                                      "eco_n:1,1,6,6", "4,4,9,9", &changes)
                  .is_ok());
  ASSERT_EQ(changes.size(), 5u);
  EXPECT_EQ(changes[0].kind, core::EcoChange::Kind::kMovePin);
  EXPECT_EQ(changes[0].net, 3);
  EXPECT_EQ(changes[0].pin, 1);
  EXPECT_EQ(changes[0].to, (grid::Point{10, 12}));
  EXPECT_EQ(changes[1].to, (grid::Point{-2, 7}));
  EXPECT_EQ(changes[2].kind, core::EcoChange::Kind::kRemoveNet);
  EXPECT_EQ(changes[2].net, 5);
  EXPECT_EQ(changes[3].kind, core::EcoChange::Kind::kAddNet);
  EXPECT_EQ(changes[3].name, "eco_n");
  EXPECT_EQ(changes[3].pins,
            (std::vector<grid::Point>{{1, 1}, {6, 6}}));
  EXPECT_EQ(changes[4].kind, core::EcoChange::Kind::kAddBlockage);
  EXPECT_EQ(changes[4].rect_lo, (grid::Point{4, 4}));
  EXPECT_EQ(changes[4].rect_hi, (grid::Point{9, 9}));

  // Empty lists (and empty entries) add nothing.
  changes.clear();
  EXPECT_TRUE(api::parse_change_specs("", ";;", "", "", &changes).is_ok());
  EXPECT_TRUE(changes.empty());

  // An int that overflows, or a token with trailing junk, is rejected with
  // the op's message; 3,1,4294967306,12 used to wrap to 3,1,10,12.
  struct Bad {
    const char* move_pins;
    const char* removes;
    const char* add_nets;
    const char* blockages;
    const char* message;
  };
  for (const Bad& bad : {
           Bad{"3,1,4294967306,12", "", "", "",
               "bad move-pin spec '3,1,4294967306,12'"},
           Bad{"3,1,10x,12", "", "", "", "bad move-pin spec"},
           Bad{"", "2147483648", "", "", "bad remove-net spec"},
           Bad{"", "5 ", "", "", "bad remove-net spec"},
           Bad{"", "", "n:1,1,6,99999999999", "", "bad add-net spec"},
           Bad{"", "", "n:1,1,6,6z", "", "bad add-net spec"},
           Bad{"", "", "", "4,4,9,-9999999999", "bad add-blockage spec"},
           Bad{"", "", "", "4,4,9,9.5", "bad add-blockage spec"},
       }) {
    changes.clear();
    const util::Status status = api::parse_change_specs(
        bad.move_pins, bad.removes, bad.add_nets, bad.blockages, &changes);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput) << bad.message;
    EXPECT_NE(status.message().find(bad.message), std::string::npos)
        << status.message();
  }
}

TEST(DeltaWire, LooksLikeDeltaLineDiscriminatesDialects) {
  EXPECT_TRUE(api::looks_like_delta_line(
      R"({"schema":"sadp.flow_delta.v1","base":{}})"));
  EXPECT_TRUE(api::looks_like_delta_line(
      "  { \"schema\" : \"sadp.flow_delta.v1\" }"));
  EXPECT_FALSE(api::looks_like_delta_line(
      R"({"schema":"sadp.flow_request.v1","jobs":[]})"));
  EXPECT_FALSE(api::looks_like_delta_line(R"({"type":"ping"})"));
  EXPECT_FALSE(api::looks_like_delta_line(""));
  EXPECT_FALSE(api::looks_like_delta_line("schema"));
}

TEST(DeltaWire, CacheKeyStripsTransportAndTraceButKeysContent) {
  const api::FlowDeltaRequest request = sample_request();
  const auto key = api::delta_cache_key(request, request.base_solution);
  ASSERT_TRUE(key.has_value());

  // Trace context must not fragment the cache.
  api::FlowDeltaRequest traced = request;
  api::ensure_delta_trace_context(&traced);
  EXPECT_EQ(api::delta_cache_key(traced, traced.base_solution), key);

  // Inline-vs-path transport must not either: the key hashes the loaded
  // text, not the request member it arrived in.
  api::FlowDeltaRequest by_path = request;
  by_path.base_solution.clear();
  by_path.base_solution_path = "/tmp/anywhere.sol";
  EXPECT_EQ(api::delta_cache_key(by_path, request.base_solution), key);

  // Different base text or change list = different entry.
  EXPECT_NE(api::delta_cache_key(request, "solution other 8 8 3 SIM 0\n"),
            key);
  api::FlowDeltaRequest edited = request;
  edited.changes.pop_back();
  EXPECT_NE(api::delta_cache_key(edited, request.base_solution), key);

  // Uncacheable shapes: file-dependent base jobs and deadlines.
  api::FlowDeltaRequest file_based = request;
  file_based.base.spec.reset();
  file_based.base.netlist_path = "/tmp/a.nl";
  EXPECT_FALSE(
      api::delta_cache_key(file_based, request.base_solution).has_value());
  api::FlowDeltaRequest deadlined = request;
  deadlined.base.deadline_seconds = 5.0;
  EXPECT_FALSE(
      api::delta_cache_key(deadlined, request.base_solution).has_value());
}

// ---------------------------------------------------------------------------
// In-process dispatch.

TEST(DeltaDispatch, RunsEcoAndReportsSummary) {
  const EcoFixture fx("eco_dispatch", 40, 12);
  api::FlowDeltaRequest request;
  request.base.label = fx.base.name;
  request.base.spec = tiny_spec("eco_dispatch", 40, 12);
  request.base.dvi_method = core::DviMethod::kHeuristic;
  request.base_solution = core::solution_to_text(fx.solution);
  request.changes = {fx.move_pin(2)};

  const api::DeltaDispatchResult run = api::dispatch_delta(request);
  ASSERT_TRUE(run.status.is_ok()) << run.status.to_string();
  EXPECT_EQ(run.outcome.status, engine::JobStatus::kOk);
  EXPECT_EQ(run.outcome.label, fx.base.name);
  EXPECT_TRUE(run.outcome.result.routing.routed_all);
  EXPECT_EQ(run.summary.nets_total, 12);
  EXPECT_GE(run.summary.nets_ripped, 1);
  EXPECT_LT(run.summary.nets_ripped, 12);
  EXPECT_FALSE(run.summary.base_fingerprint.empty());
  EXPECT_EQ(run.outcome.router, nullptr);  // keep_router defaults off
}

TEST(DeltaDispatch, SurfacesBadInputsAsInvalidInput) {
  api::FlowDeltaRequest request;
  request.base.label = "bad";
  request.base.spec = tiny_spec("bad", 32, 8);
  request.base_solution = "not a solution\n";
  EXPECT_EQ(api::dispatch_delta(request).status.code(),
            util::StatusCode::kInvalidInput);

  // Both sources set.
  request.base_solution = "solution x 32 32 3 SIM 0\n";
  request.base_solution_path = "/tmp/x.sol";
  EXPECT_EQ(api::dispatch_delta(request).status.code(),
            util::StatusCode::kInvalidInput);

  // Unreadable path.
  request.base_solution.clear();
  request.base_solution_path = "/nonexistent/base.sol";
  EXPECT_EQ(api::dispatch_delta(request).status.code(),
            util::StatusCode::kInvalidInput);

  // Change list inconsistent with the base netlist.
  const EcoFixture fx("eco_badchange", 32, 8);
  api::FlowDeltaRequest bad_change;
  bad_change.base.label = fx.base.name;
  bad_change.base.spec = tiny_spec("eco_badchange", 32, 8);
  bad_change.base_solution = core::solution_to_text(fx.solution);
  core::EcoChange change;
  change.kind = core::EcoChange::Kind::kRemoveNet;
  change.net = 99;
  bad_change.changes = {change};
  EXPECT_EQ(api::dispatch_delta(bad_change).status.code(),
            util::StatusCode::kInvalidInput);
}

/// Arms a failpoint spec for one scope; clears the registry on the way out
/// so a failed expectation cannot leak armed points into later tests.
struct ScopedFailPoints {
  explicit ScopedFailPoints(const std::string& spec) {
    EXPECT_TRUE(util::FailPointRegistry::instance().configure(spec, 0).is_ok());
  }
  ~ScopedFailPoints() { util::FailPointRegistry::instance().clear(); }
};

TEST(DeltaDispatch, RunsAsAFaultIsolatedEngineJob) {
  const EcoFixture fx("eco_isolated", 32, 8);
  api::FlowDeltaRequest request;
  request.base.label = fx.base.name;
  request.base.spec = tiny_spec("eco_isolated", 32, 8);
  request.base.dvi_method = core::DviMethod::kHeuristic;
  request.base_solution = core::solution_to_text(fx.solution);
  request.changes = {fx.move_pin(2)};

  // The engine.job fault site: an injected error is a failed row, not a
  // request error, and an injected cancellation a cancelled row.
  {
    const ScopedFailPoints armed("engine.job=err*1");
    const api::DeltaDispatchResult run = api::dispatch_delta(request);
    ASSERT_TRUE(run.status.is_ok()) << run.status.to_string();
    EXPECT_EQ(run.outcome.label, fx.base.name);
    EXPECT_EQ(run.outcome.status, engine::JobStatus::kFailed);
    EXPECT_NE(run.outcome.error.message().find("failpoint(engine.job)"),
              std::string::npos)
        << run.outcome.error.to_string();
  }
  {
    const ScopedFailPoints armed("engine.job=cancel*1");
    const api::DeltaDispatchResult run = api::dispatch_delta(request);
    ASSERT_TRUE(run.status.is_ok()) << run.status.to_string();
    EXPECT_EQ(run.outcome.status, engine::JobStatus::kCancelled);
  }

  // The base job's deadline bounds the delta like any job's.
  request.base.deadline_seconds = 1e-9;
  const api::DeltaDispatchResult late = api::dispatch_delta(request);
  ASSERT_TRUE(late.status.is_ok()) << late.status.to_string();
  EXPECT_EQ(late.outcome.status, engine::JobStatus::kTimeout);
}

// ---------------------------------------------------------------------------
// Service round trip.

server::ServerOptions quiet_options() {
  server::ServerOptions options;
  options.port = 0;
  options.pool_workers = 2;
  options.quiet = true;
  return options;
}

TEST(RouteServerDelta, RoundTripMatchesInProcessAndSecondRunHitsCache) {
  const EcoFixture fx("eco_srv", 40, 12);
  api::FlowDeltaRequest request;
  request.base.label = fx.base.name;
  request.base.spec = tiny_spec("eco_srv", 40, 12);
  request.base.dvi_method = core::DviMethod::kHeuristic;
  request.base_solution = core::solution_to_text(fx.solution);
  request.changes = {fx.move_pin(4)};

  const api::DeltaDispatchResult local = api::dispatch_delta(request);
  ASSERT_TRUE(local.status.is_ok());

  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());

  const server::RemoteBatch first =
      server::run_remote_delta("127.0.0.1", server.port(), request);
  ASSERT_TRUE(first.status.is_ok()) << first.status.to_string();
  ASSERT_TRUE(first.summary_received);
  ASSERT_TRUE(first.delta_received);
  ASSERT_EQ(first.rows.size(), 1u);
  EXPECT_EQ(first.rows[0].status, engine::JobStatus::kOk);
  EXPECT_EQ(first.row_cache[0], "miss");
  EXPECT_EQ(first.delta.nets_ripped, local.summary.nets_ripped);
  EXPECT_EQ(first.delta.nets_untouched, local.summary.nets_untouched);
  EXPECT_EQ(first.delta.nets_total, local.summary.nets_total);
  EXPECT_EQ(first.delta.base_fingerprint, local.summary.base_fingerprint);
  EXPECT_EQ(first.rows[0].result.routing.wirelength,
            local.outcome.result.routing.wirelength);
  EXPECT_EQ(first.summary.jobs, 1u);
  EXPECT_EQ(first.summary.ok, 1u);
  EXPECT_EQ(first.summary.cache_misses, 1u);

  // Same request again: served from the result cache, same payloads.
  const server::RemoteBatch second =
      server::run_remote_delta("127.0.0.1", server.port(), request);
  ASSERT_TRUE(second.status.is_ok()) << second.status.to_string();
  ASSERT_EQ(second.rows.size(), 1u);
  EXPECT_EQ(second.row_cache[0], "hit");
  EXPECT_EQ(second.summary.cache_hits, 1u);
  EXPECT_EQ(second.delta.nets_ripped, first.delta.nets_ripped);
  EXPECT_EQ(second.delta.ripped_ids, first.delta.ripped_ids);
  EXPECT_EQ(second.delta.base_fingerprint, first.delta.base_fingerprint);
  EXPECT_EQ(second.rows[0].result.routing.wirelength,
            first.rows[0].result.routing.wirelength);

  // A malformed delta line comes back as a structured error, not a hang.
  const server::RemoteBatch bad = [&] {
    api::FlowDeltaRequest broken = request;
    broken.base_solution = "not a solution\n";
    return server::run_remote_delta("127.0.0.1", server.port(), broken);
  }();
  EXPECT_FALSE(bad.status.is_ok());
  EXPECT_EQ(bad.status.code(), util::StatusCode::kInvalidInput);

  server.stop();
}

TEST(RouteServerDelta, HostileBaseCoordinatesAreInvalidInputInProcessAndRemote) {
  // Metal or via points outside the base grid used to reach
  // RoutingGrid::add_metal through adopt_base_net, whose slot check is an
  // assert: an out-of-bounds write in a release build.
  const EcoFixture fx("eco_hostile", 32, 8);
  api::FlowDeltaRequest request;
  request.base.label = fx.base.name;
  request.base.spec = tiny_spec("eco_hostile", 32, 8);
  request.base.dvi_method = core::DviMethod::kHeuristic;
  request.changes = {fx.move_pin(2)};
  const std::string text = core::solution_to_text(fx.solution);
  const std::size_t net0 = text.find("net 0\n");
  ASSERT_NE(net0, std::string::npos);

  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());
  for (const char* hostile : {"m 2 99999 3 0", "m 2 -1 3 0", "v 1 3 32 0"}) {
    std::string bad = text;
    bad.insert(net0 + 6, std::string(hostile) + "\n");  // line 3
    request.base_solution = bad;
    const api::DeltaDispatchResult local = api::dispatch_delta(request);
    EXPECT_EQ(local.status.code(), util::StatusCode::kInvalidInput) << hostile;
    EXPECT_NE(local.status.message().find("at line 3"), std::string::npos)
        << local.status.message();

    const server::RemoteBatch remote =
        server::run_remote_delta("127.0.0.1", server.port(), request);
    EXPECT_EQ(remote.status.code(), util::StatusCode::kInvalidInput) << hostile;
  }
  server.stop();
}

TEST(RouteServerDelta, SchemasVerbAdvertisesAllFourDialects) {
  server::RouteServer server(quiet_options());
  ASSERT_TRUE(server.start().is_ok());
  api::SchemasReply schemas;
  ASSERT_TRUE(
      server::query_schemas("127.0.0.1", server.port(), &schemas).is_ok());
  EXPECT_EQ(schemas.request, api::kRequestSchema);
  EXPECT_EQ(schemas.response, api::kResponseSchema);
  EXPECT_EQ(schemas.control, api::kControlSchema);
  EXPECT_EQ(schemas.delta, api::kDeltaRequestSchema);
  server.stop();
}

}  // namespace
