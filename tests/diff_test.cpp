// Differential-analysis tests: the rep-statistics layer (zero-width
// intervals on identical reps), the report diff engine (config deltas,
// significant vs noise classification, attribution verdicts,
// forward-tolerance to older schemas).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "metrics/diff.hpp"
#include "metrics/json.hpp"
#include "metrics/stats.hpp"

namespace nustencil::metrics {
namespace {

// ---------------------------------------------------------------------------
// Stats

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

TEST(Stats, IntervalOverlap) {
  RepSummary a, b;
  a.ci_lo = 1.0; a.ci_hi = 2.0;
  b.ci_lo = 1.5; b.ci_hi = 3.0;
  EXPECT_TRUE(intervals_overlap(a, b));
  EXPECT_TRUE(intervals_overlap(b, a));
  b.ci_lo = 2.5;
  EXPECT_FALSE(intervals_overlap(a, b));
  EXPECT_FALSE(intervals_overlap(b, a));
  // Two zero-width intervals at the same point overlap.
  a.ci_lo = a.ci_hi = b.ci_lo = b.ci_hi = 1.5;
  EXPECT_TRUE(intervals_overlap(a, b));
}

TEST(Stats, EmptyInputIsAllZero) {
  const RepSummary s = summarize_reps({});
  EXPECT_EQ(s.n, 0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(Stats, SectionFindByName) {
  StatsSection sec;
  sec.reps = 3;
  sec.add("result/seconds", {1.0, 2.0, 3.0});
  ASSERT_NE(sec.find("result/seconds"), nullptr);
  EXPECT_DOUBLE_EQ(sec.find("result/seconds")->median, 2.0);
  EXPECT_EQ(sec.find("result/gupdates_per_s"), nullptr);
}

// ---------------------------------------------------------------------------
// Report diff

/// A hand-built minimal v4 run report.  `mutate` edits the default field
/// values before serialisation so each test states only what differs.
struct FakeReport {
  std::string scheme = "nuCORALS";
  std::string kernel_variant = "avx2+rot/7pt/const";
  std::string schedule = "static";
  double seconds = 1.0;
  double gup = 0.5;
  long updates = 1000;
  long local_bytes = 900;
  long remote_bytes = 100;
  double spin_s = 0.01;
  double barrier_s = 0.02;
  double compute_s = 0.9;
  double imbalance = 1.05;
  long l3_hits = 800;
  long l3_misses = 200;
  std::vector<std::vector<long>> matrix = {{900, 50}, {50, 0}};
  // Optional stats section: median/ci per noisy metric name.
  bool with_stats = false;
  double seconds_ci_lo = 0.0, seconds_ci_hi = 0.0, seconds_median = 0.0;

  std::string json() const {
    std::ostringstream os;
    const double locality =
        static_cast<double>(local_bytes) / (local_bytes + remote_bytes);
    os << "{\"schema_version\":4,\"generator\":\"test\","
       << "\"provenance\":{\"git_sha\":\"abc1234\",\"compiler\":\"g++\"},"
       << "\"config\":{\"scheme\":\"" << scheme << "\",\"threads\":2,"
       << "\"kernel_variant\":\"" << kernel_variant << "\",\"schedule\":\""
       << schedule << "\"},"
       << "\"result\":{\"seconds\":" << seconds << ",\"gupdates_per_s\":"
       << gup << ",\"updates\":" << updates << "},"
       << "\"traffic\":{\"local_bytes\":" << local_bytes
       << ",\"remote_bytes\":" << remote_bytes << ",\"unowned_bytes\":0,"
       << "\"locality\":" << locality << ",\"node_matrix\":[";
    for (std::size_t r = 0; r < matrix.size(); ++r) {
      os << (r ? "," : "") << "[";
      for (std::size_t c = 0; c < matrix[r].size(); ++c)
        os << (c ? "," : "") << matrix[r][c];
      os << "]";
    }
    os << "]},"
       << "\"phases\":{\"enabled\":true,\"init_s\":0.001,"
       << "\"compute_s\":" << compute_s << ",\"barrier_wait_s\":" << barrier_s
       << ",\"spinflag_wait_s\":" << spin_s << ",\"imbalance\":" << imbalance
       << "},"
       << "\"cache\":{\"levels\":[{\"level\":3,\"hits\":" << l3_hits
       << ",\"misses\":" << l3_misses << ",\"hit_rate\":"
       << static_cast<double>(l3_hits) / (l3_hits + l3_misses) << "}]}";
    if (with_stats) {
      os << ",\"stats\":{\"reps\":3,\"metrics\":{\"result/seconds\":"
         << "{\"n\":3,\"median\":" << seconds_median << ",\"mad\":0.0,"
         << "\"ci_lo\":" << seconds_ci_lo << ",\"ci_hi\":" << seconds_ci_hi
         << ",\"min\":" << seconds_ci_lo << ",\"max\":" << seconds_ci_hi
         << "}}}";
    }
    os << "}";
    return os.str();
  }

  JsonValue parse() const { return parse_json(json()); }
};

const MetricDelta* find_metric(const ReportDiff& diff,
                               const std::string& name) {
  for (const MetricDelta& m : diff.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(Diff, IdenticalReportsHaveZeroSignificantDeltas) {
  const FakeReport r;
  const ReportDiff diff = diff_reports(r.parse(), r.parse());
  EXPECT_EQ(diff.significant(), 0u);
  EXPECT_EQ(diff.count(DeltaClass::Noise), 0u);
  EXPECT_TRUE(diff.config.empty());
  EXPECT_GT(diff.count(DeltaClass::Equal), 5u);
}

TEST(Diff, ConfigDeltaIsStructural) {
  FakeReport a, b;
  b.scheme = "nuCATS";
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  ASSERT_EQ(diff.config.size(), 1u);
  EXPECT_EQ(diff.config[0].key, "config/scheme");
  EXPECT_EQ(diff.config[0].a, "nuCORALS");
  EXPECT_EQ(diff.config[0].b, "nuCATS");
}

TEST(Diff, ExactMetricsFlagAnyChange) {
  FakeReport a, b;
  b.updates = a.updates + 1;  // one cell update of drift is significant
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/updates");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::Exact);
  EXPECT_EQ(m->cls, DeltaClass::Significant);
}

TEST(Diff, NoisyMetricsAbsorbSmallDriftWithoutStats) {
  FakeReport a, b;
  b.seconds = a.seconds * 1.05;  // 5% < the 10% single-rep fallback
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->cls, DeltaClass::Noise);
  EXPECT_FALSE(m->used_stats);

  b.seconds = a.seconds * 1.5;  // 50% is significant even without stats
  const ReportDiff big = diff_reports(a.parse(), b.parse());
  EXPECT_EQ(find_metric(big, "result/seconds")->cls, DeltaClass::Significant);
}

TEST(Diff, StatsTurnDisjointIntervalsSignificant) {
  // 6% apart — noise under the single-rep fallback, but both runs carry
  // tight (zero-width) intervals, so the diff knows it is real.
  FakeReport a, b;
  a.with_stats = b.with_stats = true;
  a.seconds = a.seconds_median = a.seconds_ci_lo = a.seconds_ci_hi = 1.0;
  b.seconds = b.seconds_median = b.seconds_ci_lo = b.seconds_ci_hi = 1.06;
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->used_stats);
  EXPECT_EQ(m->cls, DeltaClass::Significant);
}

TEST(Diff, StatsTurnOverlappingIntervalsIntoNoise) {
  // 15% apart — significant under the single-rep fallback, but the wide
  // overlapping intervals say the runs cannot be told apart.
  FakeReport a, b;
  a.with_stats = b.with_stats = true;
  a.seconds = a.seconds_median = 1.0;
  a.seconds_ci_lo = 0.7; a.seconds_ci_hi = 1.3;
  b.seconds = b.seconds_median = 1.15;
  b.seconds_ci_lo = 0.85; b.seconds_ci_hi = 1.45;
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/seconds");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->used_stats);
  EXPECT_EQ(m->cls, DeltaClass::Noise);
}

TEST(Diff, KernelChangeVerdictNamesBothVariants) {
  FakeReport a, b;
  b.kernel_variant = "scalar/7pt/const";
  b.gup = a.gup * 0.5;  // the throughput delta needs an explanation
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/gupdates_per_s");
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->has_verdict);
  EXPECT_EQ(m->verdict.cause, prof::DeltaCause::KernelChange);
  // Evidence carries both variant names — numeric/structural, not prose.
  EXPECT_NE(m->verdict.evidence.find("avx2+rot/7pt/const"), std::string::npos);
  EXPECT_NE(m->verdict.evidence.find("scalar/7pt/const"), std::string::npos);
}

TEST(Diff, LocalityShiftVerdictCarriesNumericEvidence) {
  FakeReport a, b;
  // Same config, but B pushed half its local traffic remote.
  b.local_bytes = 500;
  b.remote_bytes = 500;
  b.gup = a.gup * 0.6;
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/gupdates_per_s");
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->has_verdict);
  EXPECT_EQ(m->verdict.cause, prof::DeltaCause::LocalityShift);
  // The evidence quotes the measured locality on both sides.
  EXPECT_NE(m->verdict.evidence.find("0.9"), std::string::npos);
  EXPECT_NE(m->verdict.evidence.find("0.5"), std::string::npos);
}

TEST(Diff, SpinShiftVerdictOnSyncRegression) {
  FakeReport a, b;
  b.spin_s = 0.4;  // spin fraction jumps from ~1% to ~30%
  b.seconds = 1.3;
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "result/seconds");
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->has_verdict);
  EXPECT_EQ(m->verdict.cause, prof::DeltaCause::SpinShift);
}

TEST(Diff, TrafficMetricsAttributeToLocality) {
  FakeReport a, b;
  b.local_bytes = 500;
  b.remote_bytes = 500;
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  const MetricDelta* m = find_metric(diff, "traffic/remote_bytes");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->cls, DeltaClass::Significant);
  ASSERT_TRUE(m->has_verdict);
  EXPECT_EQ(m->verdict.cause, prof::DeltaCause::LocalityShift);
}

TEST(Diff, NodeMatrixDeltaIsSigned) {
  FakeReport a, b;
  b.matrix = {{900, 50}, {150, 0}};  // +100 bytes in cell (1,0)
  const ReportDiff diff = diff_reports(a.parse(), b.parse());
  ASSERT_EQ(diff.nodes, 2);
  ASSERT_EQ(diff.matrix_delta_mib.size(), 4u);
  EXPECT_DOUBLE_EQ(diff.matrix_delta_mib[0], 0.0);
  EXPECT_NEAR(diff.matrix_delta_mib[2], 100.0 / (1024.0 * 1024.0), 1e-15);
}

TEST(Diff, OlderSchemaIsToleratedNotSignificant) {
  // A v1-era report with only result+config: the missing sections must
  // read as schema gaps (noise), never as regressions.
  const JsonValue old = parse_json(
      "{\"schema_version\":1,\"config\":{\"scheme\":\"nuCORALS\","
      "\"threads\":2},\"result\":{\"seconds\":1.0,\"gupdates_per_s\":0.5,"
      "\"updates\":1000}}");
  const FakeReport modern;
  const ReportDiff diff = diff_reports(old, modern.parse());
  EXPECT_EQ(diff.schema_a, 1);
  EXPECT_EQ(diff.schema_b, 4);
  for (const MetricDelta& m : diff.metrics) {
    if (m.a_present && m.b_present) continue;
    EXPECT_EQ(m.cls, DeltaClass::Noise) << m.name << " flagged a schema gap";
  }
  // The shared metrics still compare normally.
  const MetricDelta* upd = find_metric(diff, "result/updates");
  ASSERT_NE(upd, nullptr);
  EXPECT_EQ(upd->cls, DeltaClass::Equal);
}

TEST(Diff, NonReportDocumentThrows) {
  EXPECT_THROW(diff_reports(parse_json("{\"foo\":1}"),
                            FakeReport().parse()),
               Error);
}

TEST(Diff, ConsoleFormatCarriesVerdictsAndSummary) {
  FakeReport a, b;
  b.kernel_variant = "scalar/7pt/const";
  b.gup = a.gup * 0.5;
  const std::string out = format_diff_console(diff_reports(a.parse(), b.parse()));
  EXPECT_NE(out.find("CONFIG config/kernel_variant"), std::string::npos);
  EXPECT_NE(out.find("SIGNIFICANT"), std::string::npos);
  EXPECT_NE(out.find("kernel-change"), std::string::npos);
  EXPECT_NE(out.find("SUMMARY:"), std::string::npos);
}

}  // namespace
}  // namespace nustencil::metrics
