// Round-trip tests of the routed-solution serialization and of running
// post-routing DVI standalone on a reloaded solution, plus differential
// tests of the one-pass reader and one-buffer writer against the stream
// reader and writer they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "core/dvi_heuristic.hpp"
#include "core/eco.hpp"
#include "core/flow.hpp"
#include "core/solution_io.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "util/rng.hpp"

namespace sadp::core {
namespace {

RoutedSolution routed_fixture() {
  netlist::BenchSpec spec;
  spec.name = "solio";
  spec.width = 48;
  spec.height = 48;
  spec.num_nets = 30;
  spec.seed = 17;
  const netlist::PlacedNetlist instance = netlist::generate(spec);
  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  SadpRouter router(instance, options);
  EXPECT_TRUE(router.run().routed_all);
  return capture_solution(instance.name, router.routing_grid(), options.style,
                          router.nets());
}

/// The routed 40x40 design of one fuzz seed, with its netlist.
struct FuzzRoute {
  netlist::PlacedNetlist instance;
  RoutedSolution captured;
};

FuzzRoute route_fuzz_seed(std::uint32_t seed) {
  netlist::BenchSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.width = 40;
  spec.height = 40;
  spec.num_nets = 24;
  spec.seed = seed;
  FuzzRoute out;
  out.instance = netlist::generate(spec);
  FlowOptions options;
  options.consider_tpl = true;
  SadpRouter router(out.instance, options);
  EXPECT_TRUE(router.run().routed_all) << "seed " << seed;
  out.captured = capture_solution(out.instance.name, router.routing_grid(),
                                  options.style, router.nets());
  return out;
}

constexpr std::uint32_t kFuzzSeeds[] = {3u, 11u, 29u};

/// Truncations at a spread of byte offsets plus seeded single-byte flips.
std::vector<std::string> mutation_corpus(const std::string& text) {
  std::vector<std::string> corpus;
  for (std::size_t cut = 0; cut < text.size(); cut += 37) {
    corpus.push_back(text.substr(0, cut));
  }
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 64; ++round) {
    std::string mutated = text;
    const std::size_t at = next() % mutated.size();
    mutated[at] = static_cast<char>(next() % 256);
    corpus.push_back(std::move(mutated));
  }
  return corpus;
}

// --- Reference oracles -------------------------------------------------------
//
// The std::getline + std::istringstream reader and the std::ostream writer
// that parse_solution / solution_to_text replaced, kept verbatim as oracles.
// The reader also carries the rules the one-pass reader added (one header,
// header dimensions in range, every point inside the header's grid), at the
// same points and with the same messages, so verdicts and error strings
// compare exactly.

std::optional<grid::SadpStyle> oracle_style(const std::string& token) {
  if (token == "SIM") return grid::SadpStyle::kSim;
  if (token == "SID") return grid::SadpStyle::kSid;
  if (token == "SAQP-SIM") return grid::SadpStyle::kSaqpSim;
  if (token == "SIM-TRIM") return grid::SadpStyle::kSimTrim;
  return std::nullopt;
}

std::optional<RoutedSolution> oracle_read(std::istream& in,
                                          std::string* error) {
  auto fail = [&](const std::string& message) -> std::optional<RoutedSolution> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  RoutedSolution solution;
  bool have_header = false;
  RoutedNet* current = nullptr;
  std::string line;
  int line_no = 0;
  auto outside = [&](const char* what, int x, int y) {
    return x < 0 || x >= solution.width || y < 0 || y >= solution.height
               ? std::optional<std::string>(
                     std::string(what) + " point (" + std::to_string(x) + "," +
                     std::to_string(y) + ") outside the " +
                     std::to_string(solution.width) + "x" +
                     std::to_string(solution.height) + " grid at line " +
                     std::to_string(line_no))
               : std::nullopt;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string keyword;
    if (!(tokens >> keyword)) continue;

    if (keyword == "solution") {
      if (have_header) {
        return fail("duplicate solution header at line " +
                    std::to_string(line_no));
      }
      std::string style_text;
      if (!(tokens >> solution.name >> solution.width >> solution.height >>
            solution.num_metal_layers >> style_text)) {
        return fail("malformed solution header at line " + std::to_string(line_no));
      }
      const auto style = oracle_style(style_text);
      if (!style) return fail("unknown style '" + style_text + "'");
      if (solution.width < 1 || solution.width > (1 << 24) ||
          solution.height < 1 || solution.height > (1 << 24) ||
          solution.num_metal_layers < 1) {
        return fail("solution header dimensions out of range at line " +
                    std::to_string(line_no));
      }
      solution.style = *style;
      have_header = true;
    } else if (keyword == "net") {
      if (!have_header) return fail("net before solution header");
      grid::NetId id = grid::kNoNet;
      if (!(tokens >> id) || id != static_cast<grid::NetId>(solution.nets.size())) {
        return fail("net ids must be dense and ordered at line " +
                    std::to_string(line_no));
      }
      solution.nets.emplace_back(id);
      current = &solution.nets.back();
      current->set_routed(true);
    } else if (keyword == "m") {
      if (current == nullptr) return fail("metal before net");
      int layer = 0, x = 0, y = 0, arms = 0;
      if (!(tokens >> layer >> x >> y >> arms) || layer < 1 ||
          layer > solution.num_metal_layers || arms < 0 || arms > 15) {
        return fail("malformed metal at line " + std::to_string(line_no));
      }
      if (const auto message = outside("metal", x, y)) return fail(*message);
      current->add_metal(layer, {x, y}, static_cast<grid::ArmMask>(arms));
    } else if (keyword == "v") {
      if (current == nullptr) return fail("via before net");
      int layer = 0, x = 0, y = 0, pin = 0;
      if (!(tokens >> layer >> x >> y >> pin) || layer < 1 ||
          layer >= solution.num_metal_layers) {
        return fail("malformed via at line " + std::to_string(line_no));
      }
      if (const auto message = outside("via", x, y)) return fail(*message);
      current->add_via(layer, {x, y}, pin != 0);
    } else {
      return fail("unknown keyword '" + keyword + "' at line " +
                  std::to_string(line_no));
    }
  }
  if (!have_header) return fail("missing solution header");
  return solution;
}

std::string oracle_text(const RoutedSolution& solution) {
  std::ostringstream out;
  out << "solution " << solution.name << ' ' << solution.width << ' '
      << solution.height << ' ' << solution.num_metal_layers << ' '
      << grid::style_name(solution.style) << '\n';
  for (const auto& net : solution.nets) {
    out << "net " << net.id() << '\n';
    std::vector<std::pair<MetalKey, grid::ArmMask>> metal(net.metal().begin(),
                                                          net.metal().end());
    std::sort(metal.begin(), metal.end(),
              [](const auto& a, const auto& b) { return a.first.v < b.first.v; });
    for (const auto& [key, arms] : metal) {
      const grid::Point p = key_point(key);
      out << "m " << key_layer(key) << ' ' << p.x << ' ' << p.y << ' '
          << static_cast<int>(arms) << '\n';
    }
    std::vector<NetVia> vias = net.vias();
    std::sort(vias.begin(), vias.end());
    for (const auto& via : vias) {
      out << "v " << via.via_layer << ' ' << via.at.x << ' ' << via.at.y << ' '
          << (via.is_pin_via ? 1 : 0) << '\n';
    }
  }
  return out.str();
}

/// Both readers on one input: the same verdict and error string, and on
/// success the same canonical text and the same per-net container order
/// (adoption iterates the metal maps, so their order is part of the
/// contract).
void expect_readers_agree(const std::string& text) {
  SCOPED_TRACE("input " + ::testing::PrintToString(text));
  std::string want_error;
  std::string got_error;
  std::istringstream in(text);
  const auto want = oracle_read(in, &want_error);
  const auto got = parse_solution(text, &got_error);
  ASSERT_EQ(got.has_value(), want.has_value()) << want_error << got_error;
  if (!want) {
    EXPECT_EQ(got_error, want_error);
    return;
  }
  EXPECT_EQ(solution_to_text(*got), oracle_text(*want));
  EXPECT_EQ(got->name, want->name);
  ASSERT_EQ(got->nets.size(), want->nets.size());
  for (std::size_t i = 0; i < want->nets.size(); ++i) {
    const auto& a = got->nets[i].metal();
    const auto& b = want->nets[i].metal();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "net " << i;
    EXPECT_EQ(got->nets[i].vias(), want->nets[i].vias()) << "net " << i;
  }
}

TEST(SolutionIo, RoundTripPreservesGeometry) {
  const RoutedSolution original = routed_fixture();
  const std::string text = solution_to_text(original);
  std::string error;
  const auto parsed = parse_solution(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  EXPECT_EQ(parsed->name, original.name);
  EXPECT_EQ(parsed->width, original.width);
  EXPECT_EQ(parsed->style, original.style);
  ASSERT_EQ(parsed->nets.size(), original.nets.size());
  long long wl_a = 0, wl_b = 0;
  int via_a = 0, via_b = 0;
  for (std::size_t i = 0; i < original.nets.size(); ++i) {
    wl_a += original.nets[i].wirelength();
    wl_b += parsed->nets[i].wirelength();
    via_a += original.nets[i].via_count();
    via_b += parsed->nets[i].via_count();
    EXPECT_EQ(parsed->nets[i].metal().size(), original.nets[i].metal().size());
  }
  EXPECT_EQ(wl_a, wl_b);
  EXPECT_EQ(via_a, via_b);

  // Serialization is deterministic.
  EXPECT_EQ(solution_to_text(*parsed), text);
}

TEST(SolutionIo, DviOnReloadedSolutionMatches) {
  // The heuristic's tie-breaking is sensitive to via order and
  // serialization canonicalizes it, so compare two reloads (identical
  // canonical order) rather than the in-memory original vs a reload.
  const RoutedSolution fixture = routed_fixture();
  const auto original = parse_solution(solution_to_text(fixture));
  ASSERT_TRUE(original.has_value());
  const auto parsed = parse_solution(solution_to_text(*original));
  ASSERT_TRUE(parsed.has_value());

  auto run_dvi = [](const RoutedSolution& solution) {
    grid::RoutingGrid grid(solution.width, solution.height,
                           solution.num_metal_layers);
    via::ViaDb vias(solution.width, solution.height,
                    solution.num_metal_layers - 1);
    EXPECT_TRUE(apply_solution(solution, grid, vias).is_ok());
    const grid::TurnRules rules = grid::TurnRules::for_style(solution.style);
    const DviProblem problem = build_dvi_problem(solution.nets, grid, rules);
    return run_dvi_heuristic(problem, vias).result.dead_vias;
  };
  EXPECT_EQ(run_dvi(*original), run_dvi(*parsed));
}

TEST(SolutionIo, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_solution("net 0\n", &error).has_value());
  EXPECT_FALSE(
      parse_solution("solution s 8 8 3 BOGUS\n", &error).has_value());
  EXPECT_FALSE(
      parse_solution("solution s 8 8 3 SIM\nnet 5\n", &error).has_value());
  EXPECT_FALSE(
      parse_solution("solution s 8 8 3 SIM\nm 2 1 1 0\n", &error).has_value());
  EXPECT_FALSE(parse_solution("solution s 8 8 3 SIM\nnet 0\nm 9 1 1 0\n", &error)
                   .has_value());
  EXPECT_FALSE(parse_solution("solution s 8 8 3 SIM\nnet 0\nv 3 1 1 0\n", &error)
                   .has_value())
      << "via layer must be < num_metal_layers";
}

TEST(SolutionIo, RejectsPointsOutsideTheHeaderGrid) {
  // A hostile base solution must not reach RoutingGrid::add_metal, whose
  // slot check is only an assert; a negative x would also spill into the
  // metal key's layer bits.
  for (const char* text : {
           "solution s 8 8 3 SIM\nnet 0\nm 2 99999 3 0\n",
           "solution s 8 8 3 SIM\nnet 0\nm 2 -1 3 0\n",
           "solution s 8 8 3 SIM\nnet 0\nm 2 3 8 0\n",
           "solution s 8 8 3 SIM\nnet 0\nv 1 8 0 0\n",
           "solution s 8 8 3 SIM\nnet 0\nv 1 0 -2147483648 1\n",
       }) {
    std::string error;
    EXPECT_FALSE(parse_solution(text, &error).has_value()) << text;
    EXPECT_NE(error.find("outside the 8x8 grid at line 3"), std::string::npos)
        << error;
  }
  EXPECT_TRUE(
      parse_solution("solution s 8 8 3 SIM\nnet 0\nm 2 7 7 0\nv 1 0 7 1\n")
          .has_value());
}

TEST(SolutionIo, RejectsBadHeaderDimensionsAndRepeatedHeaders) {
  for (const char* text : {
           "solution s 0 8 3 SIM\n",
           "solution s 8 -8 3 SIM\n",
           "solution s 8 8 0 SIM\n",
           "solution s 16777217 8 3 SIM\n",
       }) {
    std::string error;
    EXPECT_FALSE(parse_solution(text, &error).has_value()) << text;
    EXPECT_EQ(error, "solution header dimensions out of range at line 1");
  }
  // A second header could shrink the grid under points already read.
  std::string error;
  EXPECT_FALSE(parse_solution(
                   "solution s 8 8 3 SIM\nnet 0\nm 2 7 7 0\nsolution s 4 4 3 SIM\n",
                   &error)
                   .has_value());
  EXPECT_EQ(error, "duplicate solution header at line 4");
}

TEST(SolutionIo, ApplyRejectsMismatchedGrid) {
  const RoutedSolution solution = routed_fixture();

  {
    // Wrong dimensions.
    grid::RoutingGrid grid(solution.width / 2, solution.height,
                           solution.num_metal_layers);
    via::ViaDb vias(solution.width / 2, solution.height,
                    solution.num_metal_layers - 1);
    const util::Status status = apply_solution(solution, grid, vias);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  }
  {
    // Wrong layer count.
    grid::RoutingGrid grid(solution.width, solution.height,
                           solution.num_metal_layers + 2);
    via::ViaDb vias(solution.width, solution.height,
                    solution.num_metal_layers + 1);
    const util::Status status = apply_solution(solution, grid, vias);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  }
  {
    // A solution built in memory (so the reader's coordinate rule never
    // ran) whose header claims a smaller grid than its geometry uses: the
    // apply must reject the out-of-bounds points instead of tripping
    // asserts.
    RoutedSolution lying = solution;
    lying.width = 4;
    lying.height = 4;
    grid::RoutingGrid grid(4, 4, lying.num_metal_layers);
    via::ViaDb vias(4, 4, lying.num_metal_layers - 1);
    const util::Status status = apply_solution(lying, grid, vias);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  }
}

TEST(SolutionIo, SeededFuzzRoundTrip) {
  // generate -> route -> capture -> text -> parse -> apply -> validate for a
  // spread of seeds; every stage must agree with the previous one.
  for (const std::uint32_t seed : kFuzzSeeds) {
    const FuzzRoute route = route_fuzz_seed(seed);
    const std::string text = solution_to_text(route.captured);
    std::string error;
    const auto parsed = parse_solution(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(solution_to_text(*parsed), text);

    grid::RoutingGrid grid(parsed->width, parsed->height,
                           parsed->num_metal_layers);
    via::ViaDb vias(parsed->width, parsed->height,
                    parsed->num_metal_layers - 1);
    ASSERT_TRUE(apply_solution(*parsed, grid, vias).is_ok());
    EXPECT_TRUE(check_no_congestion(grid).empty()) << "seed " << seed;
    EXPECT_TRUE(check_connectivity(parsed->nets, route.instance).empty())
        << "seed " << seed;
    EXPECT_TRUE(check_no_fvps(vias).empty()) << "seed " << seed;
  }
}

TEST(SolutionIo, FuzzTruncatedAndGarbageTextNeverCrashes) {
  // Each mutation must either parse (a cut on a line boundary, a digit
  // changed) or return an error -- never crash; a parsed one must still
  // apply or report, not assert.
  const std::string text = solution_to_text(routed_fixture());
  for (const std::string& input : mutation_corpus(text)) {
    std::string error;
    const auto parsed = parse_solution(input, &error);
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    grid::RoutingGrid grid(parsed->width, parsed->height,
                           parsed->num_metal_layers);
    via::ViaDb vias(grid.width(), grid.height(), grid.num_via_layers());
    (void)apply_solution(*parsed, grid, vias);
  }
}

TEST(SolutionIo, StyleTokensRoundTrip) {
  for (auto style : {grid::SadpStyle::kSim, grid::SadpStyle::kSid,
                     grid::SadpStyle::kSaqpSim}) {
    RoutedSolution solution;
    solution.name = "s";
    solution.width = 8;
    solution.height = 8;
    solution.style = style;
    const auto parsed = parse_solution(solution_to_text(solution));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->style, style);
  }
}

TEST(SolutionIoOracle, WriterBytesAndFingerprintMatchTheStreamWriter) {
  std::vector<RoutedSolution> solutions = {routed_fixture()};
  for (const std::uint32_t seed : kFuzzSeeds) {
    solutions.push_back(route_fuzz_seed(seed).captured);
  }
  for (const RoutedSolution& solution : solutions) {
    const std::string want = oracle_text(solution);
    EXPECT_EQ(solution_to_text(solution), want) << solution.name;
    // base_fingerprint is on the wire: the hash of the same bytes.
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(util::fnv1a(want)));
    EXPECT_EQ(solution_fingerprint(solution), hex) << solution.name;
  }
}

TEST(SolutionIoOracle, ReaderMatchesTheStreamReaderOnTheMutationCorpus) {
  const std::string text = solution_to_text(routed_fixture());
  expect_readers_agree(text);
  for (const std::string& input : mutation_corpus(text)) {
    expect_readers_agree(input);
  }
  for (const std::uint32_t seed : kFuzzSeeds) {
    expect_readers_agree(solution_to_text(route_fuzz_seed(seed).captured));
  }
}

TEST(SolutionIoOracle, ReaderMatchesTheStreamReaderOnTokenEdgeCases) {
  const std::string head = "solution s 8 8 3 SIM\nnet 0\n";
  for (const std::string& input : {
           // Line ends, comments, blank lines.
           std::string("solution s 8 8 3 SIM\r\nnet 0\r\nm 2 1 1 0\r\nv 1 1 1 1\r\n"),
           std::string("# c\n\n  \t\nsolution s 8 8 3 SIM # c\nnet 0#c\n#\nm 2 1 1 0\n"),
           head + "m 2 1 1 0",
           std::string(),
           std::string("\n"),
           std::string("solution s 8 8 3 SIM"),
           // Whitespace other than ' '.
           std::string("solution\ts\t8\t8\t3\tSIM\nnet\t0\nm\t2\t1\t1\t0\n"),
           head + "m\v2\f1\r1 0\n",
           head + "m 2 1\xa0 1 0\n",
           head + std::string("m 2 1\0 1 0\n", 11),
           // Signs.
           std::string("solution s +8 +8 +3 SIM\nnet +0\nm +2 +1 +1 +0\nv +1 +1 +1 +1\n"),
           head + "m 2 +-1 1 0\n",
           head + "m 2 -+1 1 0\n",
           head + "m 2 - 1 0\n",
           head + "m 2 + 1 0\n",
           head + "m -2 1 1 0\n",
           head + "v 1 1 1 -5\n",
           head + "m 2 -0 +0 0\n",
           // Digits running into the next field or into garbage.
           head + "m 2 1+1 0\n",
           head + "m 2 1-1 0\n",
           head + "m 2 007 1 0\n",
           head + "m 2 0x5 1 0\n",
           head + "m 2 1 1 0abc\n",
           head + "m 2 1 1 0x5\n",
           std::string("solution s 8 8 3SIM\n"),
           std::string("solution s8 8 8 3 SIM\n"),
           // Overflow and range.
           head + "m 2 2147483648 1 0\n",
           head + "m 2 99999999999999999999 1 0\n",
           head + "m 2 -2147483648 1 0\n",
           head + "m 2 -2147483649 1 0\n",
           head + "m 2 1 1 16\n",
           head + "m 4 1 1 0\n",
           head + "v 3 1 1 0\n",
           // Trailing tokens are ignored.
           std::string("solution s 8 8 3 SIM extra tokens\nnet 0 junk\nm 2 1 1 0 x\nv 1 1 1 1 y z\n"),
           // Structure.
           head + "m 2 1 1\n",
           head + "net 2\n",
           head + "M 2 1 1 0\n",
           head + "v 1 1 1 0\nv 1 1 1 0\nm 2 1 1 1\nm 2 1 1 4\n",
           std::string("m 2 1 1 0\n"),
           std::string("solution s 8 8 3 SIM\nv 1 1 1 0\n"),
           std::string("solution s 8 8 3 EUV\n"),
           std::string("solution s 8 8 3 SIM\nsolution s 8 8 3 SIM\n"),
           std::string("solution s 0 8 3 SIM\n"),
           std::string("solution s 16777216 16777216 2 SID\n"),
           // The coordinate rule.
           head + "m 2 99999 3 0\n",
           head + "m 2 3 8 0\n",
           head + "v 1 -1 0 0\n",
       }) {
    expect_readers_agree(input);
  }
}

}  // namespace
}  // namespace sadp::core
