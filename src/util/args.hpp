// Small declarative command-line flag parser shared by the benchmark
// binaries and the CLI front end.
//
// Usage:
//   bool full = false; double limit = 15.0;
//   ArgParser parser("run the paper-scale benchmarks");
//   parser.add_flag("--full", &full, "run the paper-scale set");
//   parser.add_double("--ilp-limit", &limit, "per-instance ILP limit", "S");
//   if (!parser.parse(argc, argv)) return 2;   // unknown flag => nonzero
//
// Unknown flags, missing values and malformed or out-of-range numbers are
// hard errors: parse() prints the problem plus the usage text to stderr
// and returns false, so no binary can silently continue with a half-parsed
// command line.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sadp::util {

/// Split a list-valued flag ("ecc,efc", "3,1,10,12;5,0,2,2") at `sep`,
/// dropping empty tokens: "a,,b," gives {"a", "b"}.
[[nodiscard]] std::vector<std::string> split_list(std::string_view text,
                                                  char sep);

class ArgParser {
 public:
  /// `description` is a one-line summary printed at the top of the usage.
  explicit ArgParser(std::string description);

  /// Boolean switch: present => *target = true.
  void add_flag(const std::string& name, bool* target, const std::string& help);

  /// Flags taking one value argument.
  void add_string(const std::string& name, std::string* target,
                  const std::string& help, const std::string& metavar = "VALUE");
  void add_int(const std::string& name, int* target, const std::string& help,
               const std::string& metavar = "N");
  /// Unsigned 64-bit value (seeds): digits only, so "-1" is an error rather
  /// than 2^64-1.
  void add_uint64(const std::string& name, std::uint64_t* target,
                  const std::string& help, const std::string& metavar = "N");
  void add_double(const std::string& name, double* target,
                  const std::string& help, const std::string& metavar = "X");

  /// Opt in to positional (non-flag) arguments; without this call they stay
  /// hard errors, so existing binaries keep rejecting stray words.
  /// `metavar` names them in the usage line (e.g. "TRACE...").
  void allow_positional(const std::string& metavar);

  /// The positional arguments collected by parse(), in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Parse argv.  On any error (unknown flag, missing/malformed value)
  /// prints the error and the usage text to stderr and returns false.
  /// `--help` / `-h` print the usage text to stdout and exit(0).
  [[nodiscard]] bool parse(int argc, char** argv);

  /// Was the flag `name` on the command line, whatever its value?  Mode
  /// checks ask this rather than compare a value with its default, so a
  /// flag given at its default value is still seen.  Asking about a name
  /// that was never registered is a programming error and aborts.
  [[nodiscard]] bool given(const std::string& name) const;

  /// The rendered usage text (also printed on parse errors).
  [[nodiscard]] std::string usage(const std::string& argv0) const;

 private:
  enum class Kind { kFlag, kString, kInt, kUint64, kDouble };

  struct Option {
    std::string name;
    Kind kind;
    void* target;
    std::string help;
    std::string metavar;
  };

  [[nodiscard]] const Option* find(const std::string& name) const;
  bool fail(const std::string& argv0, const std::string& message) const;

  std::string description_;
  std::vector<Option> options_;
  std::string positional_metavar_;
  std::vector<std::string> positional_;
  std::set<std::string> given_;
};

}  // namespace sadp::util
