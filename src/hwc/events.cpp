#include "hwc/events.hpp"

#include <algorithm>

#include "common/args.hpp"
#include "common/error.hpp"

namespace nustencil::hwc {
namespace {

// Canonical spelling uses '-', matching perf(1); parsing folds case and
// treats '_' as '-' so --hw-events=Cache_Misses works too.
std::string canonical(const std::string& s) {
  std::string out = lowercase(s);
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

constexpr const char* kEventNames[kNumEvents] = {
    "cycles",        "instructions", "cache-references", "cache-misses",
    "stalled-cycles", "task-clock",  "page-faults"};

std::string all_event_names() {
  std::string out;
  for (int i = 0; i < kNumEvents; ++i) {
    if (i) out += i + 1 == kNumEvents ? " or " : ", ";
    out += kEventNames[i];
  }
  return out;
}

}  // namespace

const char* event_name(Event e) {
  return kEventNames[static_cast<int>(e)];
}

bool event_is_software(Event e) {
  return e == Event::TaskClock || e == Event::PageFaults;
}

bool event_is_optional(Event e) { return e == Event::StalledCycles; }

Event parse_event(const std::string& name) {
  const std::string c = canonical(name);
  for (int i = 0; i < kNumEvents; ++i)
    if (c == kEventNames[i]) return static_cast<Event>(i);
  NUSTENCIL_CHECK(false, "unknown hardware event '" + name + "' (expected " +
                             all_event_names() + ")");
  return Event::Cycles;  // unreachable
}

std::vector<Event> parse_event_list(const std::string& csv) {
  NUSTENCIL_CHECK(!csv.empty(),
                  "--hw-events: empty event list (expected a comma-separated "
                  "subset of " + all_event_names() + ")");
  std::vector<Event> events;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    NUSTENCIL_CHECK(!item.empty(),
                    "--hw-events: empty entry in '" + csv + "'");
    const Event e = parse_event(item);
    NUSTENCIL_CHECK(std::find(events.begin(), events.end(), e) == events.end(),
                    "--hw-events: duplicate event '" + item + "'");
    events.push_back(e);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return events;
}

const std::vector<Event>& default_events() {
  static const std::vector<Event> events = {
      Event::Cycles, Event::Instructions, Event::CacheReferences,
      Event::CacheMisses, Event::StalledCycles};
  return events;
}

trace::SpanCounter event_slot(Event e) {
  static_assert(static_cast<int>(trace::SpanCounter::HwPageFaults) -
                        static_cast<int>(trace::SpanCounter::HwCycles) + 1 ==
                    kNumEvents,
                "one SpanCounter slot per hwc::Event, in the same order");
  return static_cast<trace::SpanCounter>(
      static_cast<int>(trace::SpanCounter::HwCycles) + static_cast<int>(e));
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Auto: return "auto";
    case Mode::On: return "on";
  }
  return "off";
}

Mode parse_mode(const std::string& name) {
  const std::string c = lowercase(name);
  if (c == "off") return Mode::Off;
  if (c == "auto") return Mode::Auto;
  if (c == "on") return Mode::On;
  NUSTENCIL_CHECK(false, "unknown --hw-counters mode '" + name +
                             "' (expected auto, on or off)");
  return Mode::Off;  // unreachable
}

}  // namespace nustencil::hwc
