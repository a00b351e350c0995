#include <vector>

#include "common/args.hpp"
#include "schemes/cats_common.hpp"
#include "schemes/corals_common.hpp"
#include "schemes/diamond.hpp"
#include "schemes/mwd_common.hpp"
#include "schemes/naive.hpp"
#include "schemes/scheme.hpp"
#include "schemes/trapezoid.hpp"

namespace nustencil::schemes {

namespace {

template <class S, auto... args>
std::unique_ptr<Scheme> construct() {
  return std::make_unique<S>(args...);
}

/// Every scheme of the paper's evaluation: canonical legend name and
/// constructor, in legend order.
struct Entry {
  const char* name;
  std::unique_ptr<Scheme> (*make)();
};
constexpr Entry kSchemes[] = {
    {"NaiveSSE", construct<NaiveScheme>},
    {"CATS", construct<CatsScheme, false>},
    {"nuCATS", construct<CatsScheme, true>},
    {"CORALS", construct<CoralsScheme, false>},
    {"nuCORALS", construct<CoralsScheme, true>},
    {"Pochoir", construct<TrapezoidScheme>},
    {"PLuTo", construct<DiamondScheme>},
    {"MWD", construct<MwdScheme, false>},
    {"nuMWD", construct<MwdScheme, true>},
};

}  // namespace

std::unique_ptr<Scheme> make_scheme(const std::string& name) {
  // Legend names are matched case-insensitively so command lines may say
  // e.g. --scheme=nucorals; the canonical spellings stay in scheme_names().
  const std::string lower = lowercase(name);
  for (const Entry& e : kSchemes)
    if (lowercase(e.name) == lower) return e.make();
  throw Error("make_scheme: unknown scheme '" + name + "'");
}

const std::vector<std::string>& scheme_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& e : kSchemes) out.emplace_back(e.name);
    return out;
  }();
  return names;
}

}  // namespace nustencil::schemes
