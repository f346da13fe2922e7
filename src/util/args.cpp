#include "util/args.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace sadp::util {

ArgParser::ArgParser(std::string description)
    : description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, bool* target,
                         const std::string& help) {
  options_.push_back(Option{name, Kind::kFlag, target, help, ""});
}

void ArgParser::add_string(const std::string& name, std::string* target,
                           const std::string& help, const std::string& metavar) {
  options_.push_back(Option{name, Kind::kString, target, help, metavar});
}

void ArgParser::add_int(const std::string& name, int* target,
                        const std::string& help, const std::string& metavar) {
  options_.push_back(Option{name, Kind::kInt, target, help, metavar});
}

void ArgParser::add_uint64(const std::string& name, std::uint64_t* target,
                           const std::string& help, const std::string& metavar) {
  options_.push_back(Option{name, Kind::kUint64, target, help, metavar});
}

void ArgParser::add_double(const std::string& name, double* target,
                           const std::string& help, const std::string& metavar) {
  options_.push_back(Option{name, Kind::kDouble, target, help, metavar});
}

void ArgParser::allow_positional(const std::string& metavar) {
  positional_metavar_ = metavar;
}

const ArgParser::Option* ArgParser::find(const std::string& name) const {
  for (const auto& option : options_) {
    if (option.name == name) return &option;
  }
  return nullptr;
}

bool ArgParser::fail(const std::string& argv0, const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", argv0.c_str(), message.c_str(),
               usage(argv0).c_str());
  return false;
}

bool ArgParser::parse(int argc, char** argv) {
  const std::string argv0 = argc > 0 ? argv[0] : "?";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv0).c_str(), stdout);
      std::exit(0);
    }
    const Option* option = find(arg);
    if (option == nullptr) {
      // A non-flag word is positional where allowed; a dash-prefixed
      // unknown is always an error (catches typos like --ouut).
      if (!positional_metavar_.empty() &&
          (arg.empty() || arg[0] != '-')) {
        positional_.push_back(arg);
        continue;
      }
      return fail(argv0, "unknown argument: " + arg);
    }
    given_.insert(option->name);
    if (option->kind == Kind::kFlag) {
      *static_cast<bool*>(option->target) = true;
      continue;
    }
    if (i + 1 >= argc) return fail(argv0, arg + " requires a value");
    const std::string value = argv[++i];
    switch (option->kind) {
      case Kind::kString:
        *static_cast<std::string*>(option->target) = value;
        break;
      case Kind::kInt: {
        char* end = nullptr;
        errno = 0;
        const long parsed = std::strtol(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
            parsed < INT_MIN || parsed > INT_MAX) {
          return fail(argv0, arg + " expects an integer in [" +
                                 std::to_string(INT_MIN) + ", " +
                                 std::to_string(INT_MAX) + "], got '" +
                                 value + "'");
        }
        *static_cast<int*>(option->target) = static_cast<int>(parsed);
        break;
      }
      case Kind::kUint64: {
        char* end = nullptr;
        errno = 0;
        const unsigned long long parsed =
            std::strtoull(value.c_str(), &end, 10);
        // strtoull would accept (and negate) a leading '-'.
        if (value.empty() ||
            !std::isdigit(static_cast<unsigned char>(value[0])) ||
            *end != '\0' || errno == ERANGE) {
          return fail(argv0, arg + " expects an unsigned integer in [0, " +
                                 std::to_string(UINT64_MAX) + "], got '" +
                                 value + "'");
        }
        *static_cast<std::uint64_t*>(option->target) = parsed;
        break;
      }
      case Kind::kDouble: {
        char* end = nullptr;
        const double parsed = std::strtod(value.c_str(), &end);
        if (end == value.c_str() || *end != '\0') {
          return fail(argv0, arg + " expects a number, got '" + value + "'");
        }
        *static_cast<double*>(option->target) = parsed;
        break;
      }
      case Kind::kFlag:
        break;  // handled above
    }
  }
  return true;
}

bool ArgParser::given(const std::string& name) const {
  // A misspelt name would switch its mode check off without a word, and
  // release builds drop assert(), so this check stays in every build.
  if (find(name) == nullptr) {
    std::fprintf(stderr, "ArgParser::given: %s is not a registered flag\n",
                 name.c_str());
    std::abort();
  }
  return given_.count(name) > 0;
}

std::string ArgParser::usage(const std::string& argv0) const {
  std::string out = "usage: " + argv0;
  for (const auto& option : options_) {
    out += " [" + option.name;
    if (option.kind != Kind::kFlag) out += " " + option.metavar;
    out += "]";
  }
  if (!positional_metavar_.empty()) out += " " + positional_metavar_;
  out += "\n";
  if (!description_.empty()) out += "  " + description_ + "\n";
  for (const auto& option : options_) {
    std::string left = "  " + option.name;
    if (option.kind != Kind::kFlag) left += " " + option.metavar;
    // A 24-column flag field, and at least two spaces before the help.
    left.resize(std::max<std::size_t>(24, left.size() + 2), ' ');
    out += left + option.help + "\n";
  }
  return out;
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> tokens;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t at = std::min(text.find(sep, start), text.size());
    if (at > start) tokens.emplace_back(text.substr(start, at - start));
    start = at + 1;
  }
  return tokens;
}

}  // namespace sadp::util
