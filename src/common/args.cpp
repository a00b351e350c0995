#include "common/args.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.hpp"

namespace nustencil {

namespace {

/// A user's command-line mistake: the message alone, without the failed
/// expression and source location NUSTENCIL_CHECK appends.
void require(bool ok, const std::string& message) {
  if (!ok) throw Error(message);
}

}  // namespace

std::string lowercase(const std::string& s) {
  std::string lower(s.size(), '\0');
  std::transform(s.begin(), s.end(), lower.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return lower;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& fallback) {
  NUSTENCIL_CHECK(!options_.count(name), "ArgParser: duplicate option " + name);
  options_[name] = Option{help, fallback, false, std::nullopt};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  NUSTENCIL_CHECK(!options_.count(name), "ArgParser: duplicate flag " + name);
  options_[name] = Option{help, "false", true, std::nullopt};
  order_.push_back(name);
}

int ArgParser::validate_thread_count(long threads, int machine_cores) {
  require(threads >= 1, "--threads must be at least 1, got " + std::to_string(threads));
  require(threads <= machine_cores, "--threads " + std::to_string(threads) + " exceeds the " +
                                        std::to_string(machine_cores) +
                                        " cores of the selected --machine");
  return static_cast<int>(threads);
}

long ArgParser::validate_positive(const char* flag, long value) {
  require(value >= 1, std::string(flag) + " must be at least 1, got " + std::to_string(value));
  return value;
}

int ArgParser::validate_group_size(long group, int num_threads) {
  require(group >= 1, "--group-size must be at least 1, got " + std::to_string(group));
  require(group <= num_threads && num_threads % group == 0,
          "--group-size " + std::to_string(group) + " must divide the thread count " +
              std::to_string(num_threads));
  return static_cast<int>(group);
}

double ArgParser::validate_positive_seconds(const char* flag, double seconds) {
  require(std::isfinite(seconds) && seconds > 0.0,
          std::string(flag) + " must be a positive number of seconds, got " +
              std::to_string(seconds));
  return seconds;
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = options_.find(name);
    require(it != options_.end(), "unknown option --" + name + " (see --help)");
    Option& opt = it->second;
    if (opt.is_flag) {
      require(!inline_value, "flag --" + name + " takes no value");
      opt.value = "true";
    } else if (inline_value) {
      opt.value = *inline_value;
    } else {
      require(i + 1 < argc, "option --" + name + " requires a value");
      opt.value = argv[++i];
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  NUSTENCIL_CHECK(it != options_.end(), "ArgParser: unregistered option " + name);
  return it->second;
}

std::string ArgParser::get(const std::string& name) const {
  const Option& opt = find(name);
  return opt.value.value_or(opt.fallback);
}

long ArgParser::get_long(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const long out = std::strtol(v.c_str(), &end, 10);
  require(end && *end == '\0' && !v.empty(),
          "option --" + name + " expects an integer, got '" + v + "'");
  return out;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  require(end && *end == '\0' && !v.empty(),
          "option --" + name + " expects a number, got '" + v + "'");
  return out;
}

bool ArgParser::get_flag(const std::string& name) const {
  const Option& opt = find(name);
  NUSTENCIL_CHECK(opt.is_flag, "ArgParser: --" + name + " is not a flag");
  return opt.value.has_value();
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n        " << opt.help;
    if (!opt.is_flag && !opt.fallback.empty()) os << " [default: " << opt.fallback << "]";
    os << '\n';
  }
  os << "  --help\n        show this text\n";
  return os.str();
}

}  // namespace nustencil
