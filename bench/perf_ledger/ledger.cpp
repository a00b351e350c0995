#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "metrics/json.hpp"

namespace perf_ledger {

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = static_cast<int>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const long n = static_cast<long>(samples.size());
  if (n == 1) {
    s.median = s.q1 = s.q3 = samples[0];
    return s;
  }
  // Cut point i of 4 sits at rank i*(n+1)/4, linearly interpolated.
  const auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (samples[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            samples[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.median = cut(2);
  s.q3 = cut(3);
  return s;
}

Metric& Results::slot(const std::string& name, const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) return m;
  metrics_.push_back({name, unit, {}});
  return metrics_.back();
}

void Results::add(const std::string& name, const std::string& unit, double sample) {
  slot(name, unit).samples.push_back(sample);
}

void Results::add(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples) {
  Metric& m = slot(name, unit);
  m.samples.insert(m.samples.end(), samples.begin(), samples.end());
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int SpanLog::open(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = stack_.empty() ? -1 : stack_.back();
  rec.run = rec.parent < 0 ? next_run_++ : spans_[static_cast<std::size_t>(rec.parent)].run;
  rec.start_ns = now_ns();
  spans_.push_back(std::move(rec));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  stack_.pop_back();
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

void SpanLog::write_json(std::ostream& os) const {
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  nustencil::metrics::JsonWriter w(os);
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    w.begin_object()
        .kv("name", s.name)
        .kv("start_ns", s.start_ns - epoch)
        .kv("end_ns", s.end_ns - epoch)
        .kv("parent", s.parent)
        .kv("run", s.run)
        .kv("self_ns", self[i])
        .end_object();
  }
  w.end_array();
  os << '\n';
}

}  // namespace perf_ledger
