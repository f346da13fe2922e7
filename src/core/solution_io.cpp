#include "core/solution_io.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>

namespace sadp::core {

namespace {

/// Largest header width/height: metal keys hold 24-bit coordinates.
constexpr int kMaxSide = 1 << 24;

/// Token separators inside a line ('\n' ends the line itself).
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Reads one line's tokens the way `std::istream >>` does: words end at
/// whitespace, and an integer is an optional sign plus decimal digits that
/// ends at the first non-digit, which is left for the next read.
class LineTokens {
 public:
  explicit LineTokens(std::string_view line) noexcept : rest_(line) {}

  /// The next word; empty when the line is used up.
  std::string_view word() noexcept {
    skip_space();
    std::size_t n = 0;
    while (n < rest_.size() && !is_space(rest_[n])) ++n;
    const std::string_view token = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return token;
  }

  /// False when no digits follow or the value overflows an int.
  bool integer(int* out) noexcept {
    skip_space();
    const char* first = rest_.data();
    const char* last = first + rest_.size();
    if (first != last && *first == '+') {
      ++first;
      // from_chars takes a '-' here, which would accept "+-1".
      if (first != last && *first == '-') return false;
    }
    const auto [end, ec] = std::from_chars(first, last, *out);
    if (ec != std::errc{}) return false;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return true;
  }

 private:
  void skip_space() noexcept {
    std::size_t n = 0;
    while (n < rest_.size() && is_space(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

void append_int(std::string& out, int value) {
  char digits[12];
  out.append(digits, std::to_chars(digits, std::end(digits), value).ptr);
}

/// One "<tag> a b c d\n" record, formatted on the stack and appended once.
void append_record(std::string& out, char tag, int a, int b, int c, int d) {
  char line[2 + 4 * 12];  // tag, four " <int>" fields, '\n'
  char* end = line;
  *end++ = tag;
  for (const int field : {a, b, c, d}) {
    *end++ = ' ';
    end = std::to_chars(end, std::end(line), field).ptr;
  }
  *end++ = '\n';
  out.append(line, end);
}

}  // namespace

RoutedSolution capture_solution(const std::string& name,
                                const grid::RoutingGrid& grid,
                                grid::SadpStyle style,
                                const std::vector<RoutedNet>& nets) {
  RoutedSolution solution;
  solution.name = name;
  solution.width = grid.width();
  solution.height = grid.height();
  solution.num_metal_layers = grid.num_metal_layers();
  solution.style = style;
  solution.nets = nets;
  return solution;
}

void write_solution(std::ostream& out, const RoutedSolution& solution) {
  out << solution_to_text(solution);
}

std::string solution_to_text(const RoutedSolution& solution) {
  std::size_t records = 1;
  for (const auto& net : solution.nets) {
    records += 1 + net.metal().size() + net.vias().size();
  }
  std::string out;
  out.reserve(solution.name.size() + records * 16);

  out += "solution ";
  out += solution.name;
  for (const int field :
       {solution.width, solution.height, solution.num_metal_layers}) {
    out += ' ';
    append_int(out, field);
  }
  out += ' ';
  out += grid::style_name(solution.style);
  out += '\n';

  // Deterministic order for reproducible files (and stable fingerprints).
  std::vector<std::pair<MetalKey, grid::ArmMask>> metal;
  std::vector<NetVia> vias;
  for (const auto& net : solution.nets) {
    out += "net ";
    append_int(out, net.id());
    out += '\n';
    metal.assign(net.metal().begin(), net.metal().end());
    std::sort(metal.begin(), metal.end(), [](const auto& a, const auto& b) {
      return a.first.v < b.first.v;
    });
    for (const auto& [key, arms] : metal) {
      const grid::Point p = key_point(key);
      append_record(out, 'm', key_layer(key), p.x, p.y, arms);
    }
    vias.assign(net.vias().begin(), net.vias().end());
    std::sort(vias.begin(), vias.end());
    for (const auto& via : vias) {
      append_record(out, 'v', via.via_layer, via.at.x, via.at.y,
                    via.is_pin_via ? 1 : 0);
    }
  }
  return out;
}

std::optional<RoutedSolution> read_solution(std::istream& in,
                                            std::string* error) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_solution(text, error);
}

std::optional<RoutedSolution> parse_solution(std::string_view text,
                                             std::string* error) {
  int line_no = 0;
  auto fail = [&](const std::string& message) -> std::optional<RoutedSolution> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  auto at_line = [&line_no] { return " at line " + std::to_string(line_no); };

  RoutedSolution solution;
  bool have_header = false;
  RoutedNet* current = nullptr;
  // The coordinate rule: a record's point must lie in the header's grid.
  auto in_grid = [&solution](int x, int y) {
    return x >= 0 && x < solution.width && y >= 0 && y < solution.height;
  };
  auto outside = [&](const char* what, int x, int y) {
    return fail(std::string(what) + " point (" + std::to_string(x) + "," +
                std::to_string(y) + ") outside the " +
                std::to_string(solution.width) + "x" +
                std::to_string(solution.height) + " grid" + at_line());
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    LineTokens tokens(line);
    const std::string_view keyword = tokens.word();
    if (keyword.empty()) continue;

    if (keyword == "m") {
      if (current == nullptr) return fail("metal before net");
      int layer = 0, x = 0, y = 0, arms = 0;
      if (!tokens.integer(&layer) || !tokens.integer(&x) ||
          !tokens.integer(&y) || !tokens.integer(&arms) || layer < 1 ||
          layer > solution.num_metal_layers || arms < 0 || arms > 15) {
        return fail("malformed metal" + at_line());
      }
      if (!in_grid(x, y)) return outside("metal", x, y);
      current->add_metal(layer, {x, y}, static_cast<grid::ArmMask>(arms));
    } else if (keyword == "v") {
      if (current == nullptr) return fail("via before net");
      int layer = 0, x = 0, y = 0, pin = 0;
      if (!tokens.integer(&layer) || !tokens.integer(&x) ||
          !tokens.integer(&y) || !tokens.integer(&pin) || layer < 1 ||
          layer >= solution.num_metal_layers) {
        return fail("malformed via" + at_line());
      }
      if (!in_grid(x, y)) return outside("via", x, y);
      current->add_via(layer, {x, y}, pin != 0);
    } else if (keyword == "net") {
      if (!have_header) return fail("net before solution header");
      grid::NetId id = grid::kNoNet;
      if (!tokens.integer(&id) ||
          id != static_cast<grid::NetId>(solution.nets.size())) {
        return fail("net ids must be dense and ordered" + at_line());
      }
      solution.nets.emplace_back(id);
      current = &solution.nets.back();
      current->set_routed(true);
    } else if (keyword == "solution") {
      if (have_header) return fail("duplicate solution header" + at_line());
      const std::string_view name = tokens.word();
      std::string_view style_text;
      if (name.empty() || !tokens.integer(&solution.width) ||
          !tokens.integer(&solution.height) ||
          !tokens.integer(&solution.num_metal_layers) ||
          (style_text = tokens.word()).empty()) {
        return fail("malformed solution header" + at_line());
      }
      const auto style = grid::parse_style(style_text);
      if (!style) {
        return fail("unknown style '" + std::string(style_text) + "'");
      }
      if (solution.width < 1 || solution.width > kMaxSide ||
          solution.height < 1 || solution.height > kMaxSide ||
          solution.num_metal_layers < 1) {
        return fail("solution header dimensions out of range" + at_line());
      }
      solution.name = name;
      solution.style = *style;
      have_header = true;
    } else {
      return fail("unknown keyword '" + std::string(keyword) + "'" + at_line());
    }
  }
  if (!have_header) return fail("missing solution header");
  return solution;
}

util::Status apply_solution(const RoutedSolution& solution,
                            grid::RoutingGrid& grid, via::ViaDb& vias) {
  if (solution.width != grid.width() || solution.height != grid.height()) {
    return util::Status::invalid_input(
        "solution '" + solution.name + "' is " +
        std::to_string(solution.width) + "x" + std::to_string(solution.height) +
        " but the grid is " + std::to_string(grid.width()) + "x" +
        std::to_string(grid.height()));
  }
  if (solution.num_metal_layers != grid.num_metal_layers()) {
    return util::Status::invalid_input(
        "solution '" + solution.name + "' has " +
        std::to_string(solution.num_metal_layers) +
        " metal layers but the grid has " +
        std::to_string(grid.num_metal_layers()));
  }
  // Validate every coordinate before touching the databases: parsed text
  // obeys its own header's bounds, but a solution built in memory need not,
  // and a partial apply would leave the caller's grid corrupted.
  for (const auto& net : solution.nets) {
    for (const auto& [key, arms] : net.metal()) {
      const grid::Point p = key_point(key);
      if (!grid.in_bounds(p)) {
        return util::Status::invalid_input(
            "solution '" + solution.name + "' net " + std::to_string(net.id()) +
            ": metal point (" + std::to_string(p.x) + "," +
            std::to_string(p.y) + ") is outside the " +
            std::to_string(grid.width()) + "x" + std::to_string(grid.height()) +
            " grid");
      }
    }
    for (const auto& via : net.vias()) {
      if (!grid.in_bounds(via.at) || via.via_layer < 1 ||
          via.via_layer > grid.num_via_layers()) {
        return util::Status::invalid_input(
            "solution '" + solution.name + "' net " + std::to_string(net.id()) +
            ": via (" + std::to_string(via.at.x) + "," +
            std::to_string(via.at.y) + ") layer " +
            std::to_string(via.via_layer) + " is outside the grid");
      }
    }
  }
  for (const auto& net : solution.nets) net.apply_to(grid, vias);
  return util::Status::ok();
}

}  // namespace sadp::core
