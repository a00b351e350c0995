// Kernel engine: policy parsing, CPUID-driven selection, and the
// bit-exactness contract — every kernel variant the host supports
// (scalar/SSE2/AVX2, specialized and generic, constant and banded,
// orders 1-3) must produce bitwise-identical results to the scalar
// reference on randomized domains, including the periodic wrap columns.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "core/kernels.hpp"
#include "core/reference.hpp"

namespace nustencil::core {
namespace {

Box whole(const Coord& shape) {
  Box b;
  b.lo = Coord::filled(shape.rank(), 0);
  b.hi = shape;
  return b;
}

/// Every policy that resolves to a distinct runnable variant on this host.
std::vector<KernelPolicy> host_policies() {
  std::vector<KernelPolicy> ps{KernelPolicy::Scalar};
  if (kernel_isa_supported(KernelIsa::SSE2)) ps.push_back(KernelPolicy::SSE2);
  if (kernel_isa_supported(KernelIsa::AVX2)) ps.push_back(KernelPolicy::AVX2);
  ps.push_back(KernelPolicy::Auto);
  return ps;
}

/// A request with the stencil rank unknown: never rotates.
KernelRequest taps_request(int ntaps, bool banded) {
  KernelRequest request;
  request.ntaps = ntaps;
  request.banded = banded;
  return request;
}

/// Runs `steps` full-domain sweeps and returns the final buffer.
/// `chosen` (optional) receives the executor's kernel choice.
std::vector<double> run_with_policy(const Coord& shape, const StencilSpec& st,
                                    KernelPolicy policy, long steps,
                                    unsigned seed,
                                    KernelChoice* chosen = nullptr) {
  Problem p(shape, st);
  p.initialize(seed);
  Executor e(p, {}, policy);
  if (chosen) *chosen = e.kernel();
  for (long t = 0; t < steps; ++t) e.update_box(whole(shape), t, 0);
  const double* d = p.buffer(steps).data();
  return std::vector<double>(d, d + p.volume());
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KernelDispatch, PolicyParsingRoundTrips) {
  for (KernelPolicy p :
       {KernelPolicy::Auto, KernelPolicy::Scalar, KernelPolicy::SSE2,
        KernelPolicy::AVX2})
    EXPECT_EQ(parse_kernel_policy(to_string(p)), p);
  for (const char* bad : {"avx512", "", "generic", "stream", "fma"})
    EXPECT_THROW(parse_kernel_policy(bad), Error) << bad;
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kernel_isa_compiled(KernelIsa::Scalar));
  EXPECT_TRUE(kernel_isa_supported(KernelIsa::Scalar));
  const KernelChoice c = select_kernel(KernelPolicy::Scalar, taps_request(7, false));
  EXPECT_EQ(c.isa, KernelIsa::Scalar);
  EXPECT_NE(c.fn, nullptr);
}

TEST(KernelDispatch, SpecializationKeyedOnTapCount) {
  for (int ntaps : {7, 13, 19}) EXPECT_TRUE(kernel_has_specialization(ntaps));
  for (int ntaps : {3, 5, 9, 11, 25}) EXPECT_FALSE(kernel_has_specialization(ntaps));
  EXPECT_TRUE(select_kernel(KernelPolicy::Auto, taps_request(7, false)).specialized());
  EXPECT_FALSE(select_kernel(KernelPolicy::Auto, taps_request(9, false)).specialized());
}

TEST(KernelDispatch, ChoiceNamesAreDescriptive) {
  const KernelChoice c = select_kernel(KernelPolicy::Scalar, taps_request(7, true));
  EXPECT_NE(c.name().find("scalar"), std::string::npos);
  EXPECT_NE(c.name().find("7pt"), std::string::npos);
  EXPECT_NE(c.name().find("banded"), std::string::npos);
  const KernelChoice g = select_kernel(KernelPolicy::Auto, taps_request(9, false));
  EXPECT_NE(g.name().find("generic"), std::string::npos);
}

TEST(KernelDispatch, AutoNeverDowngradesBelowForcedScalar) {
  // Auto must resolve to a compiled, host-supported ISA and a non-null fn.
  const KernelChoice c = select_kernel(KernelPolicy::Auto, taps_request(13, false));
  EXPECT_NE(c.fn, nullptr);
  EXPECT_TRUE(kernel_isa_supported(c.isa));
}

TEST(KernelDispatch, ExplainMentionsPolicyAndKernel) {
  const std::string text =
      explain_kernel_choice(KernelPolicy::Auto, taps_request(7, false));
  EXPECT_NE(text.find("policy"), std::string::npos);
  EXPECT_NE(text.find("auto"), std::string::npos);
  EXPECT_NE(text.find("selected kernel"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  // How periodic rows run, and why not as whole-row calls.
  const auto rows_line = [](const KernelRequest& q) {
    const std::string t = explain_kernel_choice(KernelPolicy::Auto, q);
    const std::size_t at = t.find("periodic rows");
    return at == std::string::npos ? std::string() : t.substr(at, t.find('\n', at) - at);
  };
  EXPECT_NE(rows_line(taps_request(7, false)).find("non-rotated kernel"),
            std::string::npos);
  KernelRequest star = taps_request(7, false);
  star.rank = 3;
  star.order = 1;
  star.nx = 64;
  const bool avx2 = kernel_isa_supported(KernelIsa::AVX2);
  EXPECT_NE(rows_line(star).find(avx2 ? "whole-row vector calls" : "non-rotated kernel"),
            std::string::npos);
  star.nx = 7;
  EXPECT_NE(rows_line(star).find(avx2 ? "nx < 8" : "non-rotated kernel"),
            std::string::npos);
  star.nx = 64;
  star.checked = true;
  EXPECT_NE(rows_line(star).find("dependency checker attached"), std::string::npos);
}

TEST(KernelDispatch, EveryVariantBitIdenticalToScalar) {
  // Full-domain sweeps (periodic wrap columns included) on randomized
  // data: odd x extents exercise the vector tails, the {3,3,3} shape the
  // tiny-domain boundary split.  Tap counts covered: 3D orders 1..3 hit
  // the 7/13/19-point specializations; the 2D and 1D shapes hit the
  // generic runtime-taps kernels.
  struct Case {
    Coord shape;
    int order;
  };
  const std::vector<Case> cases = {
      {Coord{33, 7, 5}, 1},  {Coord{29, 6, 5}, 2}, {Coord{27, 7, 7}, 3},
      {Coord{21, 9}, 1},     {Coord{19, 8}, 2},    {Coord{37}, 1},
      {Coord{5, 5, 5}, 2},  // smallest legal domain: 1-wide fast range
  };
  for (const Case& c : cases) {
    for (const bool banded : {false, true}) {
      const StencilSpec st = banded
                                 ? StencilSpec::banded_star(c.shape.rank(), c.order)
                                 : StencilSpec::stable_star(c.shape.rank(), c.order);
      const std::vector<double> ref =
          run_with_policy(c.shape, st, KernelPolicy::Scalar, 3, 1234);
      for (KernelPolicy policy : host_policies()) {
        const std::vector<double> got =
            run_with_policy(c.shape, st, policy, 3, 1234);
        EXPECT_TRUE(bitwise_equal(ref, got))
            << "policy=" << to_string(policy) << " shape=" << c.shape
            << " order=" << c.order << " banded=" << banded;
      }
    }
  }
}

TEST(KernelDispatch, SpecializedMatchesGenericRowKernels) {
  // Direct row harness: for every supported ISA, every specialized tap
  // count and one generic one, the kernel must agree bitwise with the
  // generic per-cell sum in spec order written below, over full rows and
  // unaligned subranges (vector tails).
  std::vector<KernelIsa> isas{KernelIsa::Scalar};
  if (kernel_isa_supported(KernelIsa::SSE2)) isas.push_back(KernelIsa::SSE2);
  if (kernel_isa_supported(KernelIsa::AVX2)) isas.push_back(KernelIsa::AVX2);

  const Index nx = 41;
  const Index margin = 64;
  const auto at = [](Index i) { return static_cast<std::size_t>(i); };
  for (int ntaps : {7, 9, 13, 19}) {
    std::vector<double> src(at(nx + 2 * margin));
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = initial_value(static_cast<Index>(i), 7);
    std::vector<double> coeffs(at(ntaps));
    std::vector<Index> bases(at(ntaps));
    std::vector<std::vector<double>> bands(at(ntaps));
    std::vector<const double*> bandp(at(ntaps));
    for (int p = 0; p < ntaps; ++p) {
      coeffs[at(p)] = initial_value(p, 21);
      bases[at(p)] = margin + (p % 2 ? p : -p);
      bands[at(p)].resize(at(nx));
      for (Index x = 0; x < nx; ++x) bands[at(p)][at(x)] = initial_value(p * nx + x, 5);
      bandp[at(p)] = bands[at(p)].data();
    }

    for (KernelIsa isa : isas) {
      for (const bool banded : {false, true}) {
        // One cell: acc = c0*s0; acc += c_p*s_p in tap order.  The
        // volatile product keeps this TU (built without
        // -ffp-contract=off) from fusing mul+add.
        const auto cell = [&](Index x) {
          double acc = 0.0;
          for (int p = 0; p < ntaps; ++p) {
            const double c = banded ? bands[at(p)][at(x)] : coeffs[at(p)];
            const volatile double product = c * src[at(bases[at(p)] + x)];
            acc = p == 0 ? product : acc + product;
          }
          return acc;
        };
        const KernelChoice k = select_kernel_isa(isa, ntaps, banded);
        ASSERT_EQ(k.specialized(), kernel_has_specialization(ntaps)) << k.name();
        for (const auto& [x0, x1] : std::vector<std::pair<Index, Index>>{
                 {0, nx}, {1, nx - 2}, {5, 9}, {3, 3}}) {
          std::vector<double> want(at(nx), -1.0);
          std::vector<double> got(at(nx), -1.0);
          for (Index x = x0; x < x1; ++x) want[at(x)] = cell(x);
          KernelArgs ka;
          ka.src = src.data();
          ka.coeffs = coeffs.data();
          ka.bands = bandp.data();
          ka.ntaps = ntaps;
          ka.dst = got.data();
          k.fn(ka, bases.data(), 0, x0, x1);
          EXPECT_TRUE(bitwise_equal(want, got))
              << "kernel=" << k.name() << " x0=" << x0 << " x1=" << x1;
        }
      }
    }
  }
}

TEST(KernelDispatch, ExecutorReportsItsKernel) {
  Problem p(Coord{16, 4, 4}, StencilSpec::paper_3d7p());
  p.initialize();
  Executor e(p, {}, KernelPolicy::Scalar);
  EXPECT_EQ(e.kernel().isa, KernelIsa::Scalar);
  EXPECT_TRUE(e.kernel().specialized());
  EXPECT_EQ(e.kernel().ntaps, 7);
}

TEST(KernelDispatch, PolicyNamesAreCaseInsensitive) {
  EXPECT_EQ(parse_kernel_policy("AVX2"), KernelPolicy::AVX2);
  EXPECT_EQ(parse_kernel_policy("Sse2"), KernelPolicy::SSE2);
  EXPECT_EQ(parse_kernel_policy("SCALAR"), KernelPolicy::Scalar);
}

TEST(KernelDispatch, RotatedKernelEngagesAndIsBitExact) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // Prime x extents run every vector width/peel/tail path of the rotated
  // kernels; nx = 33, 64 and 67 add rows whose bases are 32B-aligned
  // only every few rows (or, for 64, always), so the scalar peel, the
  // xcap-bounded rolling window and the per-tap fallback all run on both
  // aligned and unaligned row bases.  nx = 8..13 put whole-row calls at
  // the 2W threshold and at every nx mod 4, and 66 runs nx mod 4 == 2 on
  // a long row; nx = 7 stays below it.  All three canonical rank-3 stars
  // must rotate.
  struct Case {
    Coord shape;
    int order;
  };
  std::vector<Case> cases = {
      {Coord{31, 5, 4}, 1}, {Coord{37, 6, 5}, 2}, {Coord{41, 7, 7}, 3}};
  for (const Index nx : {7, 8, 9, 10, 11, 12, 13, 33, 64, 66, 67})
    for (const int order : {1, 2, 3}) cases.push_back({Coord{nx, 7, 7}, order});
  for (const Case& c : cases) {
    for (const bool banded : {false, true}) {
      const StencilSpec st = banded
                                 ? StencilSpec::banded_star(3, c.order)
                                 : StencilSpec::stable_star(3, c.order);
      const std::vector<double> ref =
          run_with_policy(c.shape, st, KernelPolicy::Scalar, 3, 42);
      KernelChoice chosen;
      const std::vector<double> got =
          run_with_policy(c.shape, st, KernelPolicy::AVX2, 3, 42, &chosen);
      EXPECT_TRUE(chosen.rotated)
          << "shape=" << c.shape << " order=" << c.order
          << " banded=" << banded << " kernel=" << chosen.name();
      EXPECT_EQ(chosen.whole_rows, c.shape[0] >= kWholeRowMinNx)
          << "shape=" << c.shape;
      EXPECT_TRUE(bitwise_equal(ref, got))
          << "shape=" << c.shape << " order=" << c.order
          << " banded=" << banded;
    }
  }
  // Non-rank-3 stencils have no rotated kernel.
  KernelChoice flat;
  run_with_policy(Coord{24, 9}, StencilSpec::stable_star(2, 1),
                  KernelPolicy::AVX2, 1, 42, &flat);
  EXPECT_FALSE(flat.rotated);
}

TEST(KernelDispatch, RotatedKernelReadsStayInsideTheRow) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // Direct row harness on exactly-sized heap buffers: the centre row sits
  // first, then last, in its allocation, so a read of the rotated
  // kernel's rolling window outside [row, row + nx) leaves the buffer (a
  // heap-buffer-overflow under AddressSanitizer).  The x ranges are the
  // executor's interior fast ranges, mid-vector subranges of them, and
  // the whole-row call [0, nx); results must match the scalar kernel
  // (plus the executor's wrap-checked loop for the wrap cells of a whole
  // row) bitwise.  The all -0.0 source makes every product -0.0: the
  // scalar path returns +0.0 for the wrap cells and -0.0 elsewhere.
  for (const int order : {1, 2, 3}) {
    const int ntaps = 6 * order + 1;
    const auto tap = [](int p) { return static_cast<std::size_t>(p); };
    for (const Index nx : {8, 9, 10, 11, 33, 64, 66, 67}) {
      const auto n = static_cast<std::size_t>(nx);
      std::vector<double> coeffs(tap(ntaps));
      std::vector<std::vector<double>> bands(tap(ntaps), std::vector<double>(n));
      std::vector<const double*> bandp(tap(ntaps));
      for (int p = 0; p < ntaps; ++p) {
        coeffs[tap(p)] = initial_value(p, 21);
        for (Index x = 0; x < nx; ++x)
          bands[tap(p)][static_cast<std::size_t>(x)] = initial_value(p * nx + x, 5);
        bandp[tap(p)] = bands[tap(p)].data();
      }
      // The centre row plus one row per off-axis (y/z) tap.
      const Index rows = 1 + 4 * order;
      for (const bool negative_zeros : {false, true}) {
        std::vector<double> src(static_cast<std::size_t>(rows * nx));
        for (std::size_t i = 0; i < src.size(); ++i)
          src[i] = negative_zeros ? -0.0 : initial_value(static_cast<Index>(i), 17);
        for (const bool banded : {false, true}) {
          KernelRequest q = taps_request(ntaps, banded);
          q.rank = 3;
          q.order = order;
          q.nx = nx;
          const KernelChoice rot = select_kernel(KernelPolicy::AVX2, q);
          ASSERT_TRUE(rot.rotated && rot.whole_rows) << rot.name();
          const KernelChoice ref =
              select_kernel_isa(KernelIsa::Scalar, ntaps, banded);
          for (const bool centre_first : {true, false}) {
            // Tap bases in spec order: centre, x offsets -order..-1 and
            // +1..+order folded into the centre row, then the y/z rows.
            const Index row = centre_first ? 0 : (rows - 1) * nx;
            std::vector<Index> bases(tap(ntaps));
            bases[0] = row;
            for (int p = 1; p <= 2 * order; ++p)
              bases[tap(p)] = row + (p <= order ? p - 1 - order : p - order);
            Index other = centre_first ? nx : 0;
            for (int p = 2 * order + 1; p < ntaps; ++p, other += nx)
              bases[tap(p)] = other;
            // The executor's wrap-checked cell: x taps wrap modulo nx and
            // the sum starts from +0.0.  The volatile product keeps this
            // TU (built without -ffp-contract=off) from fusing mul+add.
            const auto wrapped_cell = [&](Index x) {
              double acc = 0.0;
              for (int p = 0; p < ntaps; ++p) {
                const Index off = bases[tap(p)] - row;
                const Index idx = p <= 2 * order ? row + pmod(x + off, nx)
                                                 : bases[tap(p)] + x;
                const double c = banded ? bands[tap(p)][static_cast<std::size_t>(x)]
                                        : coeffs[tap(p)];
                const volatile double product = c * src[static_cast<std::size_t>(idx)];
                acc += product;
              }
              return acc;
            };
            for (const auto& [x0, x1] : std::vector<std::pair<Index, Index>>{
                     {order, nx - order},
                     {order + 1, nx - order},
                     {5, nx - order - 3},
                     {order, order + 3},
                     {0, nx}}) {
              const bool whole = x0 == 0;
              if (!whole && x1 > nx - order) continue;  // reads past the row
              std::vector<double> want(n, -1.0), got(n, -1.0);
              KernelArgs ka;
              ka.src = src.data();
              ka.coeffs = coeffs.data();
              ka.bands = bandp.data();
              ka.ntaps = ntaps;
              ka.xcap = nx;
              ka.dst = want.data();
              if (whole) {
                ref.fn(ka, bases.data(), 0, order, nx - order);
                for (Index x = 0; x < nx; ++x)
                  if (x < order || x >= nx - order)
                    want[static_cast<std::size_t>(x)] = wrapped_cell(x);
              } else {
                ref.fn(ka, bases.data(), 0, x0, x1);
              }
              ka.dst = got.data();
              ka.whole_rows = true;
              rot.fn(ka, bases.data(), 0, x0, x1);
              EXPECT_TRUE(bitwise_equal(want, got))
                  << "order=" << order << " nx=" << nx << " banded=" << banded
                  << " negative_zeros=" << negative_zeros
                  << " centre_first=" << centre_first << " x0=" << x0
                  << " x1=" << x1;
            }
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, MidVectorTileStartMatchesScalar) {
  if (!kernel_isa_supported(KernelIsa::AVX2))
    GTEST_SKIP() << "host has no AVX2";
  // A tile whose x range starts mid-vector forces the rotated kernel's
  // scalar peel and (near the row end) its per-tap fallback loop; the
  // result must still be bitwise identical to the scalar executor on the
  // same sub-box.
  const StencilSpec st = StencilSpec::stable_star(3, 1);
  for (const Index nx : {33, 64, 67}) {
    const Coord shape{nx, 6, 5};
    for (const auto& [x0, x1] : std::vector<std::pair<Index, Index>>{
             {1, nx - 4}, {5, 23}, {6, nx}, {2, 7}}) {
      Box tile;
      tile.lo = Coord{x0, 1, 1};
      tile.hi = Coord{x1, 5, 4};
      Problem ps(shape, st);
      ps.initialize(3);
      Executor es(ps, {}, KernelPolicy::Scalar);
      es.update_box(tile, 0, 0);
      Problem pv(shape, st);
      pv.initialize(3);
      Executor ev(pv, {}, KernelPolicy::Auto);
      ASSERT_TRUE(ev.kernel().rotated) << ev.kernel().name();
      ev.update_box(tile, 0, 0);
      EXPECT_EQ(std::memcmp(ps.buffer(1).data(), pv.buffer(1).data(),
                            static_cast<std::size_t>(ps.volume()) * sizeof(double)),
                0)
          << "nx=" << nx << " x0=" << x0 << " x1=" << x1;
    }
  }
}

}  // namespace
}  // namespace nustencil::core
