#include "telemetry/sampler.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "sched/pool.hpp"
#include "telemetry/openmetrics.hpp"
#include "thread/abort.hpp"

namespace nustencil::telemetry {
namespace {

std::atomic<std::uint64_t> g_threads_started{0};

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Wait phases observed by the watchdog and the per-thread snapshots.
constexpr trace::Phase kWaitPhases[] = {trace::Phase::BarrierWait,
                                        trace::Phase::SpinWait};
constexpr trace::Phase kLeafPhases[] = {trace::Phase::Init, trace::Phase::Tile,
                                        trace::Phase::BarrierWait,
                                        trace::Phase::SpinWait};

}  // namespace

bool parse_telemetry_enabled(const std::string& text) {
  const std::string t = lower(text);
  if (t == "on") return true;
  if (t == "off") return false;
  throw Error("--telemetry: expected on or off, got '" + text + "'");
}

std::ostream& Sampler::default_diag() { return std::cerr; }

Sampler::Sampler(const Config& cfg, std::ostream& diag)
    : cfg_(cfg), diag_(&diag) {
  NUSTENCIL_CHECK(cfg_.interval_s > 0.0, "Sampler: interval must be positive");
  NUSTENCIL_CHECK(cfg_.ring_capacity > 0, "Sampler: ring capacity must be > 0");
  if (cfg_.watchdog_stall_intervals < 0)
    throw Error("Sampler: watchdog stall intervals must be >= 0");
  // One log per process, shared by every rep of the run: created (and
  // truncated) here so reps append to a single chronological stream.
  if (cfg_.sampling && !cfg_.log_path.empty())
    log_ = std::make_unique<EventLog>(cfg_.log_path);
}

Sampler::~Sampler() { detach_run(); }

void Sampler::attach_heartbeat(prof::ProgressMeter* meter) { heartbeat_ = meter; }

void Sampler::begin_run(const RunSources& sources) {
  detach_run();
  NUSTENCIL_CHECK(sources.counters != nullptr, "Sampler: no counter shard bound");
  src_ = sources;
  bound_ = true;
  seq_ = 0;
  last_layer_ = -1;
  last_steals_ = 0;
  last_t_ns_ = 0;
  openmetrics_failed_ = false;
  watchdog_aborted_ = false;
  suppress_watchdog_ = false;
  prev_.assign(static_cast<std::size_t>(num_threads()), {});
  prev_spans_.assign(static_cast<std::size_t>(num_threads()), {});

  if (cfg_.sampling) {
    store_.emplace(cfg_.ring_capacity);
    const int n = num_threads();
    for (int t = 0; t < n; ++t) {
      store_->add_series("thread" + std::to_string(t) + "/mups");
      store_->add_series("thread" + std::to_string(t) + "/locality");
    }
    store_->add_series("run/mups");
    store_->add_series("run/locality");
    store_->add_series("run/layer");

    if (cfg_.watchdog_stall_intervals > 0) {
      watchdog_.emplace(cfg_.watchdog_stall_intervals, cfg_.watchdog_action);
      watchdog_->begin_run(num_threads(), 0);
    } else {
      watchdog_.reset();
    }

    if (log_) {
      log_->event("run_start", 0.0, [&](metrics::JsonWriter& w) {
        w.kv("label", cfg_.label);
        w.kv("threads", num_threads());
        w.kv("timesteps", static_cast<std::int64_t>(src_.timesteps));
        w.kv("interval_ms", cfg_.interval_s * 1e3);
      });
      if (src_.hw_status == "degraded")
        log_->event("hw_degraded", 0.0, [&](metrics::JsonWriter& w) {
          w.kv("reason", src_.hw_reason);
        });
    }
  } else {
    store_.reset();
    watchdog_.reset();
  }

  t0_ = std::chrono::steady_clock::now();
  if (!cfg_.manual && (cfg_.sampling || heartbeat_)) start_thread();
}

std::int64_t Sampler::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

void Sampler::collect(std::vector<ThreadCumulative>& out) {
  const int n = num_threads();
  const int llc = src_.counters->cache_levels() - 1;
  out.assign(static_cast<std::size_t>(n), {});
  for (int t = 0; t < n; ++t) {
    ThreadCumulative& c = out[static_cast<std::size_t>(t)];
    trace::CounterSet row;
    src_.counters->read(t, row);
    c.updates = row.at(trace::SpanCounter::Updates);
    c.local_bytes = row.at(trace::SpanCounter::LocalBytes);
    c.remote_bytes = row.at(trace::SpanCounter::RemoteBytes);
    if (llc >= 0) {
      c.llc_hits = row.level_hits(llc);
      c.llc_misses = row.level_misses(llc);
    }
    if (src_.trace) {
      if (const trace::ThreadRecorder* rec = src_.trace->thread(t)) {
        for (const trace::Phase p : kWaitPhases) {
          c.wait_ns += rec->total_ns(p);
          c.wait_spans += rec->span_count(p);
          c.spins += rec->spin_count(p);
        }
        // The leaf phase that completed the most spans since the last
        // tick is "where the thread has been"; a tick with no completed
        // spans keeps the previous answer (the thread is stuck inside
        // one span, which the watchdog reports separately).
        auto& prev_spans = prev_spans_[static_cast<std::size_t>(t)];
        std::uint64_t best_delta = 0;
        const char* best_phase = nullptr;
        for (const trace::Phase p : kLeafPhases) {
          const std::uint64_t count = rec->span_count(p);
          c.leaf_spans += count;
          const std::size_t i = static_cast<std::size_t>(p);
          const std::uint64_t delta = count - prev_spans[i];
          if (delta > best_delta) {
            best_delta = delta;
            best_phase = trace::phase_name(p);
          }
          prev_spans[i] = count;
        }
        c.last_phase = best_phase
                           ? best_phase
                           : prev_[static_cast<std::size_t>(t)].last_phase;
      }
    }
  }
}

void Sampler::sample_once(std::int64_t t_ns) {
  if (!bound_ || !cfg_.sampling || !store_) return;
  const int n = num_threads();
  std::vector<ThreadCumulative> cum;
  collect(cum);

  const double dt_s = static_cast<double>(t_ns - last_t_ns_) * 1e-9;
  std::vector<double> row(2 * static_cast<std::size_t>(n) + 3, 0.0);
  std::uint64_t up_delta = 0, local_delta = 0, remote_delta = 0;
  for (int t = 0; t < n; ++t) {
    const ThreadCumulative& now = cum[static_cast<std::size_t>(t)];
    const ThreadCumulative& was = prev_[static_cast<std::size_t>(t)];
    const std::uint64_t du = now.updates - was.updates;
    const std::uint64_t dl = now.local_bytes - was.local_bytes;
    const std::uint64_t dr = now.remote_bytes - was.remote_bytes;
    up_delta += du;
    local_delta += dl;
    remote_delta += dr;
    const std::uint64_t owned = dl + dr;
    row[2 * static_cast<std::size_t>(t)] =
        dt_s > 0.0 ? static_cast<double>(du) / dt_s * 1e-6 : 0.0;
    row[2 * static_cast<std::size_t>(t) + 1] =
        owned == 0 ? 100.0
                   : static_cast<double>(dl) / static_cast<double>(owned) * 100.0;
  }
  const std::uint64_t owned = local_delta + remote_delta;
  const double run_mups =
      dt_s > 0.0 ? static_cast<double>(up_delta) / dt_s * 1e-6 : 0.0;
  const double run_locality =
      owned == 0 ? 100.0
                 : static_cast<double>(local_delta) /
                       static_cast<double>(owned) * 100.0;
  const long layer = src_.counters->layer();
  row[2 * static_cast<std::size_t>(n)] = run_mups;
  row[2 * static_cast<std::size_t>(n) + 1] = run_locality;
  row[2 * static_cast<std::size_t>(n) + 2] = static_cast<double>(layer);
  store_->append(t_ns, row);

  if (!cfg_.openmetrics_path.empty()) export_openmetrics(t_ns, cum, row);

  const double t_ms = static_cast<double>(t_ns) * 1e-6;
  if (log_) {
    log_->event("sample", t_ms, [&](metrics::JsonWriter& w) {
      w.kv("seq", seq_);
      w.kv("mups", run_mups);
      w.kv("locality_pct", run_locality);
      if (layer >= 0) w.kv("layer", static_cast<std::int64_t>(layer));
      w.key("threads");
      w.begin_array();
      for (int t = 0; t < n; ++t) {
        w.begin_object();
        w.kv("tid", t);
        w.kv("mups", row[2 * static_cast<std::size_t>(t)]);
        w.kv("locality_pct", row[2 * static_cast<std::size_t>(t) + 1]);
        w.kv("updates", cum[static_cast<std::size_t>(t)].updates);
        w.end_object();
      }
      w.end_array();
    });
    if (layer >= 0 && layer != last_layer_) {
      log_->event("layer", t_ms, [&](metrics::JsonWriter& w) {
        w.kv("layer", static_cast<std::int64_t>(layer));
      });
    }
    if (src_.pool) {
      const std::uint64_t steals = src_.pool->steals_so_far();
      if (steals > last_steals_) {
        log_->event("steal_burst", t_ms, [&](metrics::JsonWriter& w) {
          w.kv("steals", steals - last_steals_);
          w.kv("total", steals);
        });
        last_steals_ = steals;
      }
    }
  }
  last_layer_ = layer >= 0 ? layer : last_layer_;

  if (watchdog_ && !suppress_watchdog_) {
    const std::vector<StallDiagnosis> stalls = watchdog_->tick(t_ns, cum);
    if (!stalls.empty()) handle_stalls(t_ns, stalls);
  }

  prev_ = std::move(cum);
  last_t_ns_ = t_ns;
  ++seq_;
}

void Sampler::export_openmetrics(std::int64_t t_ns,
                                 const std::vector<ThreadCumulative>& cum,
                                 const std::vector<double>& row) {
  const int n = num_threads();
  std::vector<MetricFamily> families;
  const auto label = [](int t) { return "thread=\"" + std::to_string(t) + "\""; };

  MetricFamily updates{"nustencil_updates_total", "counter",
                       "Cumulative cell updates per worker thread", {}};
  MetricFamily local{"nustencil_local_bytes_total", "counter",
                     "Cumulative node-local owned traffic bytes", {}};
  MetricFamily remote{"nustencil_remote_bytes_total", "counter",
                      "Cumulative cross-node owned traffic bytes", {}};
  MetricFamily mups{"nustencil_mups", "gauge",
                    "Per-thread update rate over the last sample window "
                    "(million updates/s)", {}};
  MetricFamily locality{"nustencil_locality_percent", "gauge",
                        "Per-thread locality over the last sample window", {}};
  for (int t = 0; t < n; ++t) {
    const ThreadCumulative& c = cum[static_cast<std::size_t>(t)];
    updates.points.push_back({label(t), static_cast<double>(c.updates)});
    local.points.push_back({label(t), static_cast<double>(c.local_bytes)});
    remote.points.push_back({label(t), static_cast<double>(c.remote_bytes)});
    mups.points.push_back({label(t), row[2 * static_cast<std::size_t>(t)]});
    locality.points.push_back(
        {label(t), row[2 * static_cast<std::size_t>(t) + 1]});
  }
  families.push_back(std::move(updates));
  families.push_back(std::move(local));
  families.push_back(std::move(remote));
  families.push_back(std::move(mups));
  families.push_back(std::move(locality));

  families.push_back({"nustencil_run_mups", "gauge",
                      "Run-wide update rate over the last sample window",
                      {{"", row[2 * static_cast<std::size_t>(n)]}}});
  families.push_back({"nustencil_run_locality_percent", "gauge",
                      "Run-wide locality over the last sample window",
                      {{"", row[2 * static_cast<std::size_t>(n) + 1]}}});
  const double layer = row[2 * static_cast<std::size_t>(n) + 2];
  if (layer >= 0.0)
    families.push_back(
        {"nustencil_layer", "gauge", "Current temporal layer", {{"", layer}}});
  families.push_back({"nustencil_samples_total", "counter",
                      "Telemetry samples taken this run",
                      {{"", static_cast<double>(seq_ + 1)}}});
  families.push_back(
      {"nustencil_stalls_total", "counter", "Watchdog stall events this run",
       {{"", static_cast<double>(watchdog_ ? watchdog_->stall_events() : 0)}}});
  if (src_.pool)
    families.push_back({"nustencil_steals_total", "counter",
                        "Successful task steals",
                        {{"", static_cast<double>(src_.pool->steals_so_far())}}});
  if (src_.counters->cache_levels() > 0) {
    std::uint64_t hits = 0, misses = 0;
    for (const ThreadCumulative& c : cum) {
      hits += c.llc_hits;
      misses += c.llc_misses;
    }
    const std::uint64_t total = hits + misses;
    families.push_back({"nustencil_llc_miss_rate", "gauge",
                        "Cumulative simulated deepest-level miss rate",
                        {{"", total == 0 ? 0.0
                                         : static_cast<double>(misses) /
                                               static_cast<double>(total)}}});
  }
  if (src_.hw) {
    MetricFamily cycles{"nustencil_hw_cycles_total", "counter",
                        "Measured CPU cycles per worker thread (raw)", {}};
    MetricFamily instrs{"nustencil_hw_instructions_total", "counter",
                        "Measured instructions per worker thread (raw)", {}};
    for (int t = 0; t < n; ++t) {
      trace::CounterSet hw;
      src_.hw(t, hw);
      cycles.points.push_back(
          {label(t),
           static_cast<double>(hw.at(trace::SpanCounter::HwCycles))});
      instrs.points.push_back(
          {label(t),
           static_cast<double>(hw.at(trace::SpanCounter::HwInstructions))});
    }
    families.push_back(std::move(cycles));
    families.push_back(std::move(instrs));
  }

  if (!write_openmetrics_file(families, cfg_.openmetrics_path) &&
      !openmetrics_failed_) {
    openmetrics_failed_ = true;  // warn once, keep sampling
    *diag_ << "telemetry: cannot write OpenMetrics file "
           << cfg_.openmetrics_path << " (t=" << t_ns * 1e-6 << " ms)\n";
  }
}

void Sampler::handle_stalls(std::int64_t t_ns,
                            const std::vector<StallDiagnosis>& stalls) {
  const char* action = watchdog_action_name(cfg_.watchdog_action);
  for (const StallDiagnosis& d : stalls) {
    *diag_ << d.render(action);
    if (log_) {
      log_->event("stall", static_cast<double>(t_ns) * 1e-6,
                  [&](metrics::JsonWriter& w) {
                    w.kv("tid", d.tid);
                    w.kv("stalled_intervals", d.stalled_intervals);
                    w.kv("window_s", d.window_s);
                    w.kv("updates", d.updates);
                    w.kv("verdict", prof::verdict_name(d.why.verdict));
                    w.kv("spin_frac", d.why.spin_frac);
                    w.kv("remote_frac", d.why.remote_frac);
                    w.kv("miss_rate", d.why.miss_rate);
                    w.kv("wait_spans", d.window_wait_spans);
                    w.kv("spins", d.window_spins);
                    w.kv("last_phase", d.last_phase);
                    w.kv("no_spans_completed", d.no_spans_completed);
                    w.kv("action", action);
                  });
    }
  }
  if (cfg_.watchdog_action == WatchdogAction::Abort && src_.abort &&
      !watchdog_aborted_) {
    watchdog_aborted_ = true;
    src_.abort->trigger();
  }
}

void Sampler::start_thread() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = false;
    running_ = true;
  }
  g_threads_started.fetch_add(1, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void Sampler::loop() {
  using clock = std::chrono::steady_clock;
  const auto sample_every = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(cfg_.interval_s));
  const auto beat_every = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(heartbeat_ ? heartbeat_->interval_s() : 1.0));
  auto next_sample = t0_ + sample_every;
  auto next_beat = t0_ + beat_every;
  const bool sampling = cfg_.sampling;
  const bool beating = heartbeat_ != nullptr;

  std::unique_lock<std::mutex> lk(mutex_);
  while (!stopping_) {
    clock::time_point deadline;
    if (sampling && beating)
      deadline = std::min(next_sample, next_beat);
    else if (sampling)
      deadline = next_sample;
    else
      deadline = next_beat;
    cv_.wait_until(lk, deadline, [this] { return stopping_; });
    if (stopping_) break;
    const auto now = clock::now();
    if (sampling && now >= next_sample) {
      lk.unlock();
      sample_once(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      now - t0_)
                      .count());
      lk.lock();
      do next_sample += sample_every;
      while (next_sample <= now);
    }
    if (beating && now >= next_beat) {
      lk.unlock();
      heartbeat_->emit(*src_.counters);
      lk.lock();
      do next_beat += beat_every;
      while (next_beat <= now);
    }
  }
  running_ = false;
}

void Sampler::stop_thread() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Sampler::end_run(double seconds, std::uint64_t updates) {
  if (!bound_) return;
  stop_thread();
  if (cfg_.sampling && !cfg_.manual) {
    // One closing sample so runs shorter than the interval still chart.
    // The watchdog sits this one out: the workers have already finished,
    // so "no progress since the last tick" is the expected end state.
    suppress_watchdog_ = true;
    sample_once(now_ns());
    suppress_watchdog_ = false;
  }
  if (heartbeat_) heartbeat_->emit(*src_.counters, /*final=*/true);
  if (log_) {
    // Stamped on the sampler's clock so the log stays chronological —
    // `seconds` measures the run region only, which starts after t0_.
    const double end_ms =
        std::max(static_cast<double>(now_ns()), static_cast<double>(last_t_ns_)) *
        1e-6;
    log_->event("run_end", end_ms, [&](metrics::JsonWriter& w) {
      w.kv("seconds", seconds);
      w.kv("updates", updates);
      w.kv("samples", seq_);
      w.kv("stalls", watchdog_ ? watchdog_->stall_events() : 0);
    });
  }
  bound_ = false;
  src_ = RunSources{};
}

void Sampler::detach_run() {
  stop_thread();
  bound_ = false;
  src_ = RunSources{};
}

std::uint64_t Sampler::samples_taken() const { return seq_; }

int Sampler::stall_events() const {
  return watchdog_ ? watchdog_->stall_events() : 0;
}

metrics::TimeseriesSection Sampler::report_section(
    std::size_t max_points) const {
  metrics::TimeseriesSection ts;
  if (!cfg_.sampling || !store_) return ts;
  ts.enabled = true;
  ts.interval_ms = cfg_.interval_s * 1e3;
  ts.samples = store_->total_appended();
  ts.stall_events = static_cast<std::uint64_t>(stall_events());
  const std::size_t n = store_->size();
  const std::vector<std::size_t> keep =
      TimeSeriesStore::downsample_indices(n, max_points);
  ts.t_ms.reserve(keep.size());
  for (const std::size_t i : keep)
    ts.t_ms.push_back(static_cast<double>(store_->time_ns_at(i)) * 1e-6);
  ts.series.reserve(static_cast<std::size_t>(store_->num_series()));
  for (int s = 0; s < store_->num_series(); ++s) {
    metrics::TimeseriesSection::Series out;
    out.name = store_->series_name(s);
    out.values.reserve(keep.size());
    for (const std::size_t i : keep) out.values.push_back(store_->value_at(s, i));
    ts.series.push_back(std::move(out));
  }
  return ts;
}

std::uint64_t Sampler::threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

std::string describe_telemetry(bool enabled, double interval_s,
                               const std::string& openmetrics_path,
                               const std::string& log_path,
                               int watchdog_stall_intervals,
                               WatchdogAction action) {
  std::ostringstream os;
  os << "telemetry:\n";
  if (!enabled) {
    os << "  off (no sampler thread, no rings; every hook is a null check)\n";
    return os.str();
  }
  os << "  sampling every " << interval_s * 1e3
     << " ms into per-series rings (relaxed reads of the run's live "
        "counter shard)\n";
  os << "  openmetrics: "
     << (openmetrics_path.empty() ? "off"
                                  : openmetrics_path + " (atomic rewrite)")
     << '\n';
  os << "  event log: "
     << (log_path.empty() ? "off" : log_path + " (append-only JSONL)") << '\n';
  if (watchdog_stall_intervals > 0)
    os << "  watchdog: fire after " << watchdog_stall_intervals
       << " stalled interval(s), action " << watchdog_action_name(action)
       << '\n';
  else
    os << "  watchdog: off\n";
  return os.str();
}

}  // namespace nustencil::telemetry
