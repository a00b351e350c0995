#include "prof/progress.hpp"

#include <atomic>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace nustencil::prof {
namespace {

std::atomic<std::uint64_t> g_threads_started{0};

}  // namespace

ProgressMeter::ProgressMeter(double interval_s, std::ostream& os,
                             std::string label, std::uint64_t total_updates)
    : interval_s_(interval_s),
      os_(&os),
      label_(std::move(label)),
      total_updates_(total_updates) {
  NUSTENCIL_CHECK(interval_s > 0.0, "ProgressMeter: interval must be positive");
}

ProgressMeter::~ProgressMeter() { stop(/*final_line=*/false); }

void ProgressMeter::start(const CounterShard& counters) {
  stop(/*final_line=*/false);
  counters_ = &counters;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = false;
  }
  g_threads_started.fetch_add(1, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void ProgressMeter::loop() {
  using clock = std::chrono::steady_clock;
  const auto every = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(interval_s_));
  auto next = clock::now() + every;
  std::unique_lock<std::mutex> lk(mutex_);
  while (!cv_.wait_until(lk, next, [this] { return stopping_; })) {
    lk.unlock();
    emit(*counters_);
    lk.lock();
    const auto now = clock::now();
    do next += every;
    while (next <= now);
  }
}

void ProgressMeter::stop(bool final_line) {
  if (!counters_) return;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (final_line) emit(*counters_, /*final=*/true);
  counters_ = nullptr;
}

std::uint64_t ProgressMeter::threads_started() {
  return g_threads_started.load(std::memory_order_relaxed);
}

std::string ProgressMeter::render_line(const CounterShard& counters) {
  trace::CounterSet sum;
  for (int tid = 0; tid < counters.num_threads(); ++tid) {
    trace::CounterSet row;
    counters.read(tid, row);
    sum.accumulate(row);
  }
  const std::uint64_t updates = sum.at(trace::SpanCounter::Updates);
  const std::uint64_t local = sum.at(trace::SpanCounter::LocalBytes);
  const std::uint64_t remote = sum.at(trace::SpanCounter::RemoteBytes);
  const auto now = std::chrono::steady_clock::now();
  const double dt = std::chrono::duration<double>(now - last_beat_).count();
  const double mups =
      dt > 0.0 ? static_cast<double>(updates - last_updates_) / dt * 1e-6 : 0.0;
  last_updates_ = updates;
  last_beat_ = now;
  const std::uint64_t owned = local + remote;
  const double locality =
      owned == 0 ? 100.0
                 : static_cast<double>(local) / static_cast<double>(owned) * 100.0;

  std::ostringstream line;
  line << "progress";
  if (!label_.empty()) line << " [" << label_ << ']';
  line << ": ";
  if (const long layer = counters.layer(); layer >= 0)
    line << "layer " << layer << " | ";
  line << std::fixed << std::setprecision(1) << mups << " M up/s | locality "
       << std::setprecision(1) << locality << '%';
  if (total_updates_ > 0)
    line << " | " << std::setprecision(1)
         << static_cast<double>(updates) / static_cast<double>(total_updates_) *
                100.0
         << "% done";
  return line.str();
}

void ProgressMeter::emit(const CounterShard& counters, bool final) {
  *os_ << render_line(counters) << (final ? " (final)" : "") << std::endl;
}

}  // namespace nustencil::prof
