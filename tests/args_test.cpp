// Command-line argument parser.
#include <gtest/gtest.h>

#include <limits>

#include "common/args.hpp"
#include "core/kernels.hpp"
#include "hwc/events.hpp"
#include "schemes/scheme.hpp"

namespace nustencil {
namespace {

ArgParser make() {
  ArgParser p("prog", "test program");
  p.add_option("name", "a string", "dflt");
  p.add_option("count", "an int", "7");
  p.add_flag("verbose", "a flag");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

/// Whether `fn` throws an Error whose text reads as a user's mistake: the
/// message alone, without a failed expression or source location.
template <typename F>
bool throws_plain_error(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return std::string(e.what()).find("(failed:") == std::string::npos;
  }
  return false;
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make();
  EXPECT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("name"), "dflt");
  EXPECT_EQ(p.get_long("count"), 7);
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(ArgParser, SpaceAndEqualsForms) {
  ArgParser p = make();
  EXPECT_TRUE(parse(p, {"--name", "abc", "--count=42", "--verbose"}));
  EXPECT_EQ(p.get("name"), "abc");
  EXPECT_EQ(p.get_long("count"), 42);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, Positionals) {
  ArgParser p = make();
  EXPECT_TRUE(parse(p, {"one", "--count", "3", "two"}));
  EXPECT_EQ(p.positionals().size(), 2u);
  EXPECT_EQ(p.positionals()[0], "one");
  EXPECT_EQ(p.positionals()[1], "two");
}

TEST(ArgParser, UnknownOptionThrows) {
  ArgParser p = make();
  EXPECT_THROW(parse(p, {"--typo"}), Error);
  EXPECT_TRUE(throws_plain_error([&] { parse(p, {"--typo"}); }));
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser p = make();
  EXPECT_THROW(parse(p, {"--name"}), Error);
  EXPECT_TRUE(throws_plain_error([&] { parse(p, {"--name"}); }));
}

TEST(ArgParser, FlagWithValueThrows) {
  ArgParser p = make();
  EXPECT_THROW(parse(p, {"--verbose=yes"}), Error);
  EXPECT_TRUE(throws_plain_error([&] { parse(p, {"--verbose=yes"}); }));
}

TEST(ArgParser, NonNumericValueThrows) {
  ArgParser p = make();
  ASSERT_TRUE(parse(p, {"--count", "abc"}));
  EXPECT_THROW(p.get_long("count"), Error);
  EXPECT_TRUE(throws_plain_error([&] { p.get_long("count"); }));
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p = make();
  testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(p, {"--help"}));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--name"), std::string::npos);
  EXPECT_NE(out.find("a string"), std::string::npos);
  EXPECT_NE(out.find("[default: 7]"), std::string::npos);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p("prog", "x");
  p.add_option("a", "h", "");
  EXPECT_THROW(p.add_option("a", "h", ""), Error);
  EXPECT_THROW(p.add_flag("a", "h"), Error);
}

TEST(ArgParser, GetDouble) {
  ArgParser p("prog", "x");
  p.add_option("ratio", "a double", "0.5");
  EXPECT_TRUE(parse(p, {"--ratio", "2.25"}));
  EXPECT_DOUBLE_EQ(p.get_double("ratio"), 2.25);
}

TEST(ArgParser, ValidateThreadCountAcceptsSaneValues) {
  EXPECT_EQ(ArgParser::validate_thread_count(1, 32), 1);
  EXPECT_EQ(ArgParser::validate_thread_count(32, 32), 32);
}

TEST(ArgParser, ValidateThreadCountRejectsNonPositive) {
  EXPECT_THROW(ArgParser::validate_thread_count(0, 32), Error);
  EXPECT_THROW(ArgParser::validate_thread_count(-3, 32), Error);
  try {
    ArgParser::validate_thread_count(-3, 32);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

TEST(ArgParser, ValidateThreadCountRejectsMoreThanMachineCores) {
  EXPECT_THROW(ArgParser::validate_thread_count(33, 32), Error);
  try {
    ArgParser::validate_thread_count(33, 32);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("33"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("32"), std::string::npos);
  }
}

TEST(ArgParser, ValidatePositiveAcceptsCounts) {
  EXPECT_EQ(ArgParser::validate_positive("--trace-buffer", 1), 1);
  EXPECT_EQ(ArgParser::validate_positive("--trace-buffer", 1 << 20), 1 << 20);
}

TEST(ArgParser, ValidatePositiveRejectsZeroAndNegative) {
  EXPECT_THROW(ArgParser::validate_positive("--trace-buffer", 0), Error);
  EXPECT_THROW(ArgParser::validate_positive("--trace-buffer", -5), Error);
  try {
    ArgParser::validate_positive("--trace-buffer", -5);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    // The message must name the flag and echo the offending value.
    EXPECT_NE(std::string(e.what()).find("--trace-buffer"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-5"), std::string::npos);
  }
}

TEST(ArgParser, ValidateGroupSizeAcceptsDivisors) {
  EXPECT_EQ(ArgParser::validate_group_size(1, 8), 1);
  EXPECT_EQ(ArgParser::validate_group_size(2, 8), 2);
  EXPECT_EQ(ArgParser::validate_group_size(4, 8), 4);
  EXPECT_EQ(ArgParser::validate_group_size(8, 8), 8);
  EXPECT_EQ(ArgParser::validate_group_size(3, 3), 3);
  EXPECT_EQ(ArgParser::validate_group_size(1, 1), 1);
}

TEST(ArgParser, ValidateGroupSizeRejectsNonPositive) {
  EXPECT_THROW(ArgParser::validate_group_size(0, 8), Error);
  EXPECT_THROW(ArgParser::validate_group_size(-2, 8), Error);
  try {
    ArgParser::validate_group_size(-2, 8);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--group-size"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-2"), std::string::npos);
  }
}

TEST(ArgParser, ValidateGroupSizeRejectsNonDivisorOfThreads) {
  EXPECT_THROW(ArgParser::validate_group_size(3, 8), Error);
  EXPECT_THROW(ArgParser::validate_group_size(16, 8), Error);  // bigger than n
  try {
    ArgParser::validate_group_size(3, 8);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    // The message must echo both the group size and the thread count.
    EXPECT_NE(std::string(e.what()).find("3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("8"), std::string::npos);
  }
}

TEST(SchemeOption, MwdSpellingsAreCaseInsensitive) {
  // The CLI lowercases --scheme before the factory lookup; every spelling
  // of the diamond family must resolve to the canonical scheme name.
  for (const char* spelling : {"mwd", "MWD", "Mwd"})
    EXPECT_EQ(schemes::make_scheme(spelling)->name(), "MWD") << spelling;
  for (const char* spelling : {"numwd", "nuMWD", "NUMWD", "NuMwd"})
    EXPECT_EQ(schemes::make_scheme(spelling)->name(), "nuMWD") << spelling;
}

TEST(ArgParser, ValidatePositiveSecondsAcceptsFractions) {
  EXPECT_DOUBLE_EQ(ArgParser::validate_positive_seconds("--progress", 0.25),
                   0.25);
  EXPECT_DOUBLE_EQ(ArgParser::validate_positive_seconds("--progress", 10.0),
                   10.0);
}

TEST(ArgParser, ValidatePositiveSecondsRejectsZeroNegativeAndNonFinite) {
  EXPECT_THROW(ArgParser::validate_positive_seconds("--progress", 0.0), Error);
  EXPECT_THROW(ArgParser::validate_positive_seconds("--progress", -1.5), Error);
  EXPECT_THROW(ArgParser::validate_positive_seconds(
                   "--progress", std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(ArgParser::validate_positive_seconds(
                   "--progress", std::numeric_limits<double>::quiet_NaN()),
               Error);
  try {
    ArgParser::validate_positive_seconds("--progress", -1.5);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("(failed:"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--progress"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-1.5"), std::string::npos);
  }
}

TEST(ArgParser, MalformedNumberForSecondsOptionThrows) {
  // The CLI path is get_double() then validate_positive_seconds(); a
  // malformed value must fail at the parse step, not slip through as 0.
  ArgParser p("prog", "x");
  p.add_option("progress", "heartbeat seconds", "");
  ASSERT_TRUE(parse(p, {"--progress", "2s"}));
  EXPECT_THROW(p.get_double("progress"), Error);
  EXPECT_TRUE(throws_plain_error([&] { p.get_double("progress"); }));
}

/// Mirrors the CLI's kernel-engine option exactly: string option, then
/// core::parse_kernel_policy on the value, like tools/nustencil_cli.cpp
/// does.
ArgParser make_kernel_parser() {
  ArgParser p("prog", "x");
  p.add_option("kernel", "kernel policy", "auto");
  return p;
}

TEST(ArgParser, KernelPolicyOptionIsCaseInsensitive) {
  for (const char* spelling : {"avx2", "AVX2", "Avx2", "aVx2"}) {
    ArgParser p = make_kernel_parser();
    ASSERT_TRUE(parse(p, {"--kernel", spelling}));
    EXPECT_EQ(core::parse_kernel_policy(p.get("kernel")),
              core::KernelPolicy::AVX2)
        << spelling;
  }
  ArgParser p = make_kernel_parser();
  ASSERT_TRUE(parse(p, {"--kernel=SSE2"}));
  EXPECT_EQ(core::parse_kernel_policy(p.get("kernel")),
            core::KernelPolicy::SSE2);
}

TEST(ArgParser, BadKernelPolicyListsValidValues) {
  // "generic" and "stream" name no kernel policy either, and the FMA
  // tier is gone: every kernel is bit-exact.
  for (const char* bad : {"avx512", "generic", "stream", "fma"}) {
    ArgParser p = make_kernel_parser();
    ASSERT_TRUE(parse(p, {"--kernel", bad}));
    try {
      core::parse_kernel_policy(p.get("kernel"));
      ADD_FAILURE() << "expected Error for " << bad;
    } catch (const Error& e) {
      const std::string what = e.what();
      // One line that echoes the offending value and lists every
      // accepted one.
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("(expected auto, scalar, sse2 or avx2)"),
                std::string::npos)
          << what;
    }
  }
}

/// Mirrors the CLI's hardware-counter options exactly: string options,
/// then hwc::parse_* on the values, like tools/nustencil_cli.cpp does.
ArgParser make_hw_parser() {
  ArgParser p("prog", "x");
  p.add_option("hw-counters", "counter mode", "off");
  p.add_option("hw-events", "event list", "");
  return p;
}

TEST(ArgParser, HwCountersModeIsCaseInsensitive) {
  for (const char* spelling : {"auto", "Auto", "AUTO", "aUtO"}) {
    ArgParser p = make_hw_parser();
    ASSERT_TRUE(parse(p, {"--hw-counters", spelling}));
    EXPECT_EQ(hwc::parse_mode(p.get("hw-counters")), hwc::Mode::Auto)
        << spelling;
  }
  ArgParser p = make_hw_parser();
  ASSERT_TRUE(parse(p, {"--hw-counters=ON", "--hw-events=CYCLES,Page_Faults"}));
  EXPECT_EQ(hwc::parse_mode(p.get("hw-counters")), hwc::Mode::On);
  const std::vector<hwc::Event> events =
      hwc::parse_event_list(p.get("hw-events"));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], hwc::Event::Cycles);
  EXPECT_EQ(events[1], hwc::Event::PageFaults);
}

TEST(ArgParser, BadHwCountersModeListsValidValues) {
  ArgParser p = make_hw_parser();
  ASSERT_TRUE(parse(p, {"--hw-counters", "yes"}));
  try {
    hwc::parse_mode(p.get("hw-counters"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'yes'"), std::string::npos);
    for (const char* valid : {"auto", "on", "off"})
      EXPECT_NE(what.find(valid), std::string::npos) << valid;
  }
}

TEST(ArgParser, BadHwEventListsValidValues) {
  ArgParser p = make_hw_parser();
  ASSERT_TRUE(parse(p, {"--hw-events", "cycles,branches"}));
  try {
    hwc::parse_event_list(p.get("hw-events"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'branches'"), std::string::npos);
    for (const char* valid : {"cycles", "instructions", "cache-references",
                              "cache-misses", "stalled-cycles", "task-clock",
                              "page-faults"})
      EXPECT_NE(what.find(valid), std::string::npos) << valid;
  }
}

}  // namespace
}  // namespace nustencil
