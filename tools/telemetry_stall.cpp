// telemetry_stall — deliberately parks one worker so CI can exercise the
// telemetry watchdog's detection path end-to-end on a real thread team.
//
//   telemetry_stall [warn|abort] [jsonl-log-path]
//
// Two workers run a fake compute loop that publishes into the live
// counter shard every millisecond; worker 1 stops publishing after its
// first few ticks.  The sampler (10 ms interval, 3-interval watchdog)
// must flag the stall within ~30 ms.  Under `warn` the workers run to
// completion and the process exits 0 with the diagnosis on stderr; under
// `abort` the triggered abort token unwinds the still-running workers
// and the process exits nonzero — exactly what a hung production run
// would do in CI.  Exit 3 means the watchdog never fired: a detection
// bug.
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "prof/counter_shard.hpp"
#include "telemetry/sampler.hpp"
#include "thread/abort.hpp"
#include "thread/team.hpp"

using namespace nustencil;

int main(int argc, char** argv) try {
  const telemetry::WatchdogAction action =
      telemetry::parse_watchdog_action(argc > 1 ? argv[1] : "warn");

  telemetry::Config tcfg;
  tcfg.interval_s = 0.01;
  tcfg.label = "telemetry_stall";
  tcfg.watchdog_stall_intervals = 3;
  tcfg.watchdog_action = action;
  if (argc > 2) tcfg.log_path = argv[2];
  telemetry::Sampler sampler(tcfg);

  threading::AbortToken abort;
  prof::CounterShard counters(/*num_threads=*/2);
  telemetry::RunSources src;
  src.timesteps = 1;
  src.counters = &counters;
  src.abort = &abort;
  sampler.begin_run(src);

  threading::Team team(2, /*pin=*/false);
  team.run([&](int tid) {
    std::uint64_t updates = 0;
    for (int i = 0; i < 200; ++i) {  // ~200 ms of "work" in 1 ms ticks
      abort.check();
      if (tid == 0 || i < 5) {
        counters.store(tid, trace::SpanCounter::Updates, ++updates);
        counters.store(tid, trace::SpanCounter::LocalBytes, 100);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  sampler.end_run(/*seconds=*/0.2, /*updates=*/0);

  std::cout << "stall events: " << sampler.stall_events() << '\n';
  return sampler.stall_events() > 0 ? 0 : 3;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 2;
}
