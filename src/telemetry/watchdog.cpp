#include "telemetry/watchdog.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace nustencil::telemetry {

WatchdogAction parse_watchdog_action(const std::string& text) {
  std::string t = text;
  std::transform(t.begin(), t.end(), t.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (t == "warn") return WatchdogAction::Warn;
  if (t == "abort") return WatchdogAction::Abort;
  throw Error("--watchdog: expected warn or abort, got '" + text + "'");
}

const char* watchdog_action_name(WatchdogAction a) {
  return a == WatchdogAction::Abort ? "abort" : "warn";
}

Watchdog::Watchdog(int stall_intervals, WatchdogAction action)
    : stall_intervals_(stall_intervals), action_(action) {
  NUSTENCIL_CHECK(stall_intervals >= 1,
                  "Watchdog: stall_intervals must be >= 1");
}

void Watchdog::begin_run(int num_threads, std::int64_t t0_ns) {
  threads_.assign(static_cast<std::size_t>(num_threads), PerThread{});
  for (PerThread& t : threads_) t.advance_t_ns = t0_ns;
  events_ = 0;
}

StallDiagnosis Watchdog::diagnose(int tid, std::int64_t t_ns,
                                  const ThreadCumulative& now,
                                  const PerThread& state) const {
  StallDiagnosis d;
  d.tid = tid;
  d.stalled_intervals = state.stuck_ticks;
  d.window_s = static_cast<double>(t_ns - state.advance_t_ns) * 1e-9;
  d.updates = now.updates;
  d.window_wait_spans = now.wait_spans - state.at_advance.wait_spans;
  d.window_spins = now.spins - state.at_advance.spins;
  d.no_spans_completed = now.leaf_spans == state.at_advance.leaf_spans;
  d.last_phase = now.last_phase;

  // Synthesize one span over the stalled window and reuse the straggler
  // thresholds.  A thread that completed no span at all is stuck inside
  // a single one — with zero updates that is a wait by any other name,
  // so the whole window counts as excluded (waiting) time and the
  // spin-frac threshold classifies it.  The span's counters stay zero:
  // the shard publishes bytes and misses together with updates, so a
  // stalled window has no traffic or miss deltas.
  prof::SpanRecord span;
  span.tid = tid;
  span.phase = trace::Phase::Tile;
  span.start_ns = state.advance_t_ns;
  span.end_ns = t_ns;
  span.exclude_ns = d.no_spans_completed
                        ? t_ns - state.advance_t_ns
                        : now.wait_ns - state.at_advance.wait_ns;
  d.why = prof::attribute(span);
  return d;
}

std::vector<StallDiagnosis> Watchdog::tick(
    std::int64_t t_ns, const std::vector<ThreadCumulative>& cum) {
  std::vector<StallDiagnosis> fired;
  for (std::size_t i = 0; i < threads_.size() && i < cum.size(); ++i) {
    PerThread& t = threads_[i];
    if (cum[i].updates != t.at_advance.updates) {
      t.at_advance = cum[i];
      t.advance_t_ns = t_ns;
      t.stuck_ticks = 0;
      t.fired = false;
      continue;
    }
    t.stuck_ticks += 1;
    if (t.stuck_ticks >= stall_intervals_ && !t.fired) {
      t.fired = true;
      events_ += 1;
      fired.push_back(diagnose(static_cast<int>(i), t_ns, cum[i], t));
    }
  }
  return fired;
}

std::string StallDiagnosis::render(const std::string& action) const {
  std::ostringstream os;
  os << "telemetry watchdog: thread " << tid << " stalled — no progress for "
     << std::fixed << std::setprecision(1) << window_s * 1e3 << " ms ("
     << stalled_intervals << " intervals), " << updates
     << " updates published\n";
  os << "  verdict: " << prof::verdict_name(why.verdict) << " (spin_frac "
     << std::setprecision(2) << why.spin_frac << ", remote_frac "
     << why.remote_frac << ", miss_rate " << why.miss_rate << ")\n";
  os << "  window: " << window_wait_spans << " wait span(s), " << window_spins
     << " spin iteration(s)";
  if (!last_phase.empty()) os << "; last phase " << last_phase;
  if (no_spans_completed)
    os << "; no span completed in the window (stuck inside one)";
  os << "\n  action: " << action << '\n';
  return os.str();
}

}  // namespace nustencil::telemetry
