// Minimal command-line argument parser for the tools and benches.
//
// Supports `--name value`, `--name=value` and boolean `--flag` options,
// collects positional arguments, and generates a --help text.  Unknown
// options are errors (typos should not be silently ignored).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nustencil {

/// ASCII lower-case copy of `s`: the one case fold that makes option
/// values such as --scheme, --kernel and --schedule case-insensitive.
std::string lowercase(const std::string& s);

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description);

  /// Registers a value option; `fallback` is returned when absent.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& fallback);

  /// Registers a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false when --help was requested (help text is
  /// written to stdout); throws Error on unknown options or missing
  /// values.
  bool parse(int argc, char** argv);

  std::string get(const std::string& name) const;
  long get_long(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Validates a worker-thread count against the target machine: throws
  /// Error (with the offending value in the message) unless
  /// 1 <= threads <= machine_cores.  Returns the count as an int so CLI
  /// code can validate and narrow in one step.
  static int validate_thread_count(long threads, int machine_cores);

  /// Validates a count-valued option (e.g. --trace-buffer): throws Error
  /// (with the flag and the offending value in the message) unless
  /// value >= 1.
  static long validate_positive(const char* flag, long value);

  /// Validates a positive-seconds option (e.g. --progress): throws Error
  /// (with the flag and the offending value) unless seconds > 0 and
  /// finite.
  static double validate_positive_seconds(const char* flag, double seconds);

  /// Validates a --group-size value against the worker-thread count:
  /// throws Error (with the offending values in the message) unless
  /// 1 <= group <= num_threads and group divides num_threads.  Returns
  /// the size as an int so CLI code can validate and narrow in one step.
  static int validate_group_size(long group, int num_threads);

  /// The full --help text.
  std::string help() const;

 private:
  struct Option {
    std::string help;
    std::string fallback;
    bool is_flag = false;
    std::optional<std::string> value;
  };

  const Option& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<std::string> order_;  // help output order
  std::map<std::string, Option> options_;
  std::vector<std::string> positionals_;
};

}  // namespace nustencil
