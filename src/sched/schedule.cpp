#include "sched/schedule.hpp"

#include "common/args.hpp"
#include "common/error.hpp"

namespace nustencil::sched {

Schedule parse_schedule(const std::string& name) {
  const std::string lower = lowercase(name);
  if (lower == "static") return Schedule::Static;
  if (lower == "steal") return Schedule::Steal;
  if (lower == "steal_local") return Schedule::StealLocal;
  throw Error("unknown schedule '" + name + "' (expected static, steal or steal_local)");
}

const char* schedule_name(Schedule s) {
  switch (s) {
    case Schedule::Static: return "static";
    case Schedule::Steal: return "steal";
    case Schedule::StealLocal: return "steal_local";
  }
  return "?";
}

}  // namespace nustencil::sched
