// Metrics subsystem: the post-run registry record, JSON writer/parser
// round trips, the run-report document parsing back into itself, and the
// --reps summaries of its "stats" section.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "metrics/json.hpp"
#include "metrics/registry.hpp"
#include "metrics/run_report.hpp"
#include "metrics/schema.hpp"
#include "metrics/stats.hpp"
#include "topology/machine.hpp"

namespace nustencil::metrics {
namespace {

TEST(Registry, AddSumsCountsAndKeepsZeros) {
  Registry reg(2);
  reg.add("events", 1);
  reg.add("events", 110);
  reg.add("never", 0);  // a zero count still appears in the record
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("events"), 111u);
  EXPECT_EQ(snap.counters.at("never"), 0u);
  EXPECT_EQ(snap.counters.size(), 2u);
}

TEST(Registry, AddBucketsSumsElementwiseAndTrims) {
  Registry reg(2);
  const std::vector<std::uint64_t> a = {1, 1, 2, 0, 0};
  const std::vector<std::uint64_t> b = {0, 0, 1, 1, 0, 0, 0};
  reg.add_buckets("sizes", a);
  reg.add_buckets("sizes", b);
  reg.add_buckets("empty", std::vector<std::uint64_t>(65, 0));
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.histograms.at("sizes"),
            (std::vector<std::uint64_t>{1, 1, 3, 1}));
  EXPECT_EQ(snap.histograms.at("empty"), std::vector<std::uint64_t>{0});
}

TEST(Json, WriterProducesParseableDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", "a \"quoted\" \n string");
  w.kv("i", 42);
  w.kv("d", 0.125);
  w.kv("b", true);
  w.key("null_value").null();
  w.key("arr").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object();
  w.kv("k", "v");
  w.end_object();
  w.end_object();

  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("s").str(), "a \"quoted\" \n string");
  EXPECT_DOUBLE_EQ(v.at("i").num(), 42.0);
  EXPECT_DOUBLE_EQ(v.at("d").num(), 0.125);
  EXPECT_TRUE(v.at("b").boolean_value());
  EXPECT_EQ(v.at("null_value").type, JsonValue::Type::Null);
  ASSERT_EQ(v.at("arr").array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("arr").array[2].num(), 3.0);
  EXPECT_EQ(v.at("nested").at("k").str(), "v");
}

TEST(Json, DoublesRoundTripExactly) {
  for (const double x : {1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 12345.6789}) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.kv("x", x);
    w.end_object();
    EXPECT_EQ(parse_json(os.str()).at("x").num(), x);
  }
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("nan", std::nan(""));
  w.end_object();
  EXPECT_EQ(parse_json(os.str()).at("nan").type, JsonValue::Type::Null);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  EXPECT_EQ(v.keys(), (std::vector<std::string>{"z", "a", "m"}));
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("{'single': 1}"), Error);
  EXPECT_THROW(parse_json("[1, 2,]"), Error);
  EXPECT_THROW(parse_json("nul"), Error);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const JsonValue v = parse_json(R"({"s": "\u00e9A"})");
  EXPECT_EQ(v.at("s").str(), "\xc3\xa9"  "A");
}

RunReport minimal_report(const topology::MachineSpec& machine,
                         const Registry* reg) {
  RunReport r;
  r.scheme = "nuCORALS";
  r.shape = "8x8x8";
  r.timesteps = 2;
  r.threads = 2;
  r.kernel_policy = "auto";
  r.kernel_variant = "scalar/generic";
  r.page_bytes = 4096;
  r.seed = 42;
  r.pin_policy = "compact";
  r.machine = &machine;
  r.seconds = 0.5;
  r.updates = 1024;
  r.gupdates_per_second = 1024 / 0.5 * 1e-9;
  r.traffic.local_bytes = 100;
  r.traffic.remote_bytes = 50;
  r.traffic.bytes_from_node = {150, 0};
  r.traffic.node_matrix = {100, 0, 50, 0};
  r.traffic.samples.push_back({512, 60, 40});
  r.traffic.samples.push_back({1024, 40, 10});
  r.registry = reg;
  return r;
}

TEST(RunReportJson, ParsesBackWithAllSections) {
  const topology::MachineSpec machine = topology::xeonX7550();
  Registry reg(2);
  reg.add("kernel/tiles", 7);
  reg.add_buckets("kernel/tile_updates", std::vector<std::uint64_t>{0, 0, 0, 0, 1});
  const RunReport rep = minimal_report(machine, &reg);

  const JsonValue doc = parse_json(run_report_json(rep));
  EXPECT_EQ(doc.keys(), run_report_top_level_keys());
  EXPECT_EQ(static_cast<int>(doc.at("schema_version").num()),
            kRunReportSchemaVersion);
  EXPECT_EQ(doc.at("config").at("scheme").str(), "nuCORALS");
  EXPECT_EQ(doc.at("machine").at("name").str(), machine.name);
  EXPECT_DOUBLE_EQ(doc.at("result").at("seconds").num(), 0.5);
  EXPECT_EQ(doc.at("result").at("max_rel_diff").type, JsonValue::Type::Null);
  // Matrix rows and the series survive the round trip.
  const JsonValue& matrix = doc.at("traffic").at("node_matrix");
  ASSERT_EQ(matrix.array.size(), 2u);
  EXPECT_DOUBLE_EQ(matrix.array[1].array[0].num(), 50.0);
  EXPECT_EQ(doc.at("traffic").at("locality_series").array.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("kernel/tiles").num(), 7.0);
  EXPECT_EQ(doc.at("histograms").at("kernel/tile_updates").array.size(), 5u);
}

TEST(Stats, IdenticalRepsCollapseToZeroWidthInterval) {
  const RepSummary s = summarize_reps({1.5, 1.5, 1.5, 1.5});
  EXPECT_EQ(s.n, 4);
  EXPECT_DOUBLE_EQ(s.median, 1.5);
  EXPECT_DOUBLE_EQ(s.mad, 0.0);
  EXPECT_DOUBLE_EQ(s.ci_lo, 1.5);
  EXPECT_DOUBLE_EQ(s.ci_hi, 1.5);
  EXPECT_DOUBLE_EQ(s.min, 1.5);
  EXPECT_DOUBLE_EQ(s.max, 1.5);
}

TEST(Stats, SummaryIsRobustToOneOutlier) {
  // Median/MAD shrug off the 100x outlier a mean/stddev summary would
  // be dominated by.
  const RepSummary s = summarize_reps({1.0, 1.1, 0.9, 1.0, 100.0});
  EXPECT_DOUBLE_EQ(s.median, 1.0);
  EXPECT_NEAR(s.mad, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_LT(s.ci_hi, 2.0);  // the interval stays near the bulk
}

TEST(Stats, EmptyInputIsAllZero) {
  const RepSummary s = summarize_reps({});
  EXPECT_EQ(s.n, 0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

}  // namespace
}  // namespace nustencil::metrics
