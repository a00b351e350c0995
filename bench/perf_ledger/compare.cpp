// perf_ledger --compare: the verdict of record set B against record set A
// for every (metric, workload) pair, each side summarised over its runs:
//
//   agree       B's median is no worse than A's by more than the metric's
//               bound; counts: every value of both sets is identical
//   regressed   worse by more than the bound; counts: any value differs
//   unresolved  a side's quartile spread exceeds the bound (and B does not
//               beat A on every run), or one side lacks the pair
//   info        a per-layer metric, which has no bound: change printed only
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "ledger.hpp"
#include "metrics/json.hpp"

namespace perf_ledger {

namespace {

using nustencil::metrics::JsonValue;

struct Rule {
  bool bounded = false;
  double bound = 0.0;
  bool higher_better = true;
};

/// Per-layer metrics the engine computes from exact counts: any
/// difference between two runs of the same code is a finding.
bool is_count(const std::string& name) {
  for (const char* suffix : {".tiles", ".row_cells", ".slow_cells_frac", ".local_frac"}) {
    const std::size_t n = std::strlen(suffix);
    if (name.size() >= n && name.compare(name.size() - n, n, suffix) == 0) return true;
  }
  return false;
}

struct RecordSet {
  /// (workload, metric) -> the reported value of every run.
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;
  /// workload -> {reps attempted, reps failed} over all runs.
  std::map<std::string, std::pair<double, double>> reps;
};

RecordSet read_records(const std::string& path) {
  std::ifstream in(path);
  NUSTENCIL_CHECK(in.good(), "cannot read record file " + path);
  RecordSet set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const JsonValue run = nustencil::metrics::parse_json(line);
    const std::string& workload = run.at("workload").str();
    auto& [attempted, failed] = set.reps[workload];
    attempted += run.at("attempted").num();
    failed += run.at("failed").num();
    for (const auto& [name, metric] : run.at("metrics").object)
      set.values[{workload, name}].push_back(metric.at("value").num());
  }
  return set;
}

std::string describe(const std::vector<double>& v) {
  const Summary s = summarize(v);
  std::ostringstream os;
  os << s.median << " [" << s.q1 << ", " << s.q3 << "] n=" << s.n;
  return os.str();
}

double rel_spread(const Summary& s) {
  return s.median != 0.0 ? (s.q3 - s.q1) / std::fabs(s.median) : 0.0;
}

}  // namespace

int compare_records(const std::string& a_path, const std::string& b_path,
                    const std::string& benchmark_json, std::ostream& os) {
  std::map<std::string, Rule> rules;
  const JsonValue spec = nustencil::metrics::parse_json_file(benchmark_json);
  for (const JsonValue& m : spec.at("end_to_end").array)
    rules[m.at("name").str()] = {true, m.at("bound").num(), m.at("better").str() == "higher"};
  for (const JsonValue& m : spec.at("per_layer").array)
    rules[m.at("name").str()] = {false, 0.0, m.at("better").str() == "higher"};

  const RecordSet a = read_records(a_path), b = read_records(b_path);
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& entry : a.values) pairs.insert(entry.first);
  for (const auto& entry : b.values) pairs.insert(entry.first);

  std::map<std::string, int> tally;
  for (const auto& key : pairs) {
    const auto& [workload, metric] = key;
    const auto ia = a.values.find(key), ib = b.values.find(key);
    if (ia == a.values.end() || ib == b.values.end()) {
      ++tally["unresolved"];
      os << "unresolved " << metric << ' ' << workload << " (missing in "
         << (ia == a.values.end() ? "A" : "B") << ")\n";
      continue;
    }
    const std::vector<double>& av = ia->second;
    const std::vector<double>& bv = ib->second;
    const Summary sa = summarize(av), sb = summarize(bv);
    const double change = sa.median != 0.0 ? (sb.median - sa.median) / std::fabs(sa.median) : 0.0;
    const auto rule = rules.find(metric);
    std::string verdict = "info";
    if (is_count(metric)) {
      const auto same = [&](double v) { return v == av.front(); };
      verdict = std::all_of(av.begin(), av.end(), same) && std::all_of(bv.begin(), bv.end(), same)
                    ? "agree"
                    : "regressed";
    } else if (rule != rules.end() && rule->second.bounded) {
      const Rule& r = rule->second;
      const double worse = r.higher_better ? -change : change;
      const auto [a_lo, a_hi] = std::minmax_element(av.begin(), av.end());
      const auto [b_lo, b_hi] = std::minmax_element(bv.begin(), bv.end());
      const bool b_always_better = r.higher_better ? *b_lo > *a_hi : *b_hi < *a_lo;
      if (std::max(rel_spread(sa), rel_spread(sb)) > r.bound)
        verdict = b_always_better ? "agree" : "unresolved";
      else
        verdict = worse > r.bound ? "regressed" : "agree";
    }
    ++tally[verdict];
    os << verdict << ' ' << metric << ' ' << workload << " A=" << describe(av)
       << " B=" << describe(bv) << " change=" << change * 100.0 << '%';
    if (rule != rules.end() && rule->second.bounded)
      os << " bound=" << rule->second.bound * 100.0 << '%';
    os << '\n';
  }

  // fail_frac has bound 0: any rise in failed reps is a regression.
  for (const auto& [workload, ra] : a.reps) {
    const auto it = b.reps.find(workload);
    if (it == b.reps.end()) continue;
    const double fa = ra.second / std::max(1.0, ra.first);
    const double fb = it->second.second / std::max(1.0, it->second.first);
    const char* verdict = fb > fa ? "regressed" : "agree";
    ++tally[verdict];
    os << verdict << " fail_frac " << workload << " A=" << fa << " (" << ra.first
       << " reps) B=" << fb << " (" << it->second.first << " reps)\n";
  }

  os << "summary:";
  for (const char* v : {"agree", "regressed", "unresolved", "info"}) os << ' ' << v << '=' << tally[v];
  os << '\n';
  return tally["regressed"] > 0 ? 1 : 0;
}

}  // namespace perf_ledger
