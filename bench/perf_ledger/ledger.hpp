// Shared pieces of the perf_ledger benchmark: quartile summaries, the
// named-sample result set every mode prints, the --compare entry point,
// and the benchmark-side span log that times each layer from outside,
// through its public calls only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perf_ledger {

/// Median and quartiles by the "exclusive" method of Python's
/// statistics.quantiles(n=4), so the ledger's q1/q3 match what a Python
/// consumer computes from the same samples.  One sample gives
/// q1 = median = q3; no samples give n = 0 and zeros.
struct Summary {
  int n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};
Summary summarize(std::vector<double> samples);

/// One metric of a run: its samples (one per rep, or one per timed
/// repetition of a microbenchmark); the reported value is their median.
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Metrics in first-added order.
class Results {
 public:
  void add(const std::string& name, const std::string& unit, double sample);
  void add(const std::string& name, const std::string& unit,
           const std::vector<double>& samples);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  Metric& slot(const std::string& name, const std::string& unit);
  std::vector<Metric> metrics_;
};

/// One benchmark-side span.  `parent` indexes the span list (-1 for a
/// top-level span); every top-level span opens a new `run` id that its
/// descendants share.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// Spans of the main thread, kept in memory and written once at exit.
class SpanLog {
 public:
  int open(std::string name);
  void close(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per span: its duration minus the durations of its direct children
  /// (children run sequentially inside their parent on the same thread).
  std::vector<std::int64_t> self_ns() const;

  void write_json(std::ostream& os) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int next_run_ = 0;
};

/// --compare: judges every (metric, workload) pair of record set B against
/// record set A (JSON-lines files written by --out), using the bounds in
/// `benchmark_json`, and prints one verdict line per pair.  Returns 1
/// when any pair regressed, else 0.
int compare_records(const std::string& a_path, const std::string& b_path,
                    const std::string& benchmark_json, std::ostream& os);

/// Scoped span; a null log records nothing (the untraced mode).
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~Span() {
    if (log_) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perf_ledger
