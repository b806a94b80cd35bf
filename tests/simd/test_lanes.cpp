// Lane primitives and the vector math kernels: select/clamp/abs against their
// scalar counterparts bit-for-bit, vlog against std::log within a few ulp,
// vsincos_2pi against the libm pair within ~2e-16 absolute. The public hooks
// (vlog_lanes / vsincos_2pi_lanes) are width-generic, so every committed
// width runs even on a host whose ISA would pick a narrower one — generic
// vectors lower to scalar code with identical values.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "simd/gauss.hpp"
#include "simd/lanes.hpp"
#include "util/rng.hpp"

namespace aqua::simd {
namespace {

TEST(Lanes, ActiveWidthIsAConfiguredWidth) {
  const int w = active_lane_width();
  EXPECT_TRUE(w == 1 || w == 2 || w == 4 || w == 8) << w;
}

// W = 1 is the scalar specialisation; W = 2 runs the mask forms that every
// wider pack shares, at a width whose vector type is part of the baseline
// ABI (a wider pack in this TU would change its calling convention).
template <int W>
void expect_select_clamp_abs_match_scalar() {
  using L = Lanes<W>;
  const double specials[] = {0.0,  -0.0, 1.5,  -1.5, 1e-308,
                             -3.0, 3.0,  0.25, -0.9, 123.456};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (double x : specials) {
    for (double lo : {-1.0, -0.0, 0.5}) {
      for (double hi : {0.0, 1.0, 2.0}) {
        if (hi < lo) continue;
        const double got =
            L::get(L::clamp(L::splat(x), L::splat(lo), L::splat(hi)), W - 1);
        EXPECT_EQ(bits(got), bits(std::clamp(x, lo, hi)))
            << "W " << W << " clamp(" << x << ", " << lo << ", " << hi << ")";
      }
      const double picked =
          L::get(L::select(L::lt(L::splat(x), L::splat(lo)), L::splat(lo),
                           L::splat(x)),
                 W - 1);
      EXPECT_EQ(bits(picked), bits(x < lo ? lo : x))
          << "W " << W << " select(" << x << " < " << lo << ")";
    }
    EXPECT_EQ(bits(L::get(L::vabs(L::splat(x)), W - 1)), bits(std::abs(x)))
        << "W " << W << " abs(" << x << ")";
    const auto up = L::ge(L::splat(x), L::splat(0.0));
    EXPECT_EQ(bits(L::get(L::unit(up), W - 1)), bits(x >= 0.0 ? 1.0 : -1.0))
        << "W " << W << " unit(" << x << " >= 0)";
    EXPECT_EQ(L::get(L::select_u(up, L::splat_u(7), L::splat_u(9)), W - 1),
              x >= 0.0 ? 7u : 9u)
        << "W " << W << " select_u(" << x << " >= 0)";
  }
}

TEST(Lanes, SelectClampAbsMatchScalarBitForBit) {
  expect_select_clamp_abs_match_scalar<1>();
  expect_select_clamp_abs_match_scalar<2>();
}

TEST(Lanes, SqrtIsCorrectlyRounded) {
  using L = Lanes<2>;
  for (double x : {0.0, 1.0, 2.0, 0.3, 1e-12, 4.0e8}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(L::get(L::vsqrt(L::splat(x)), 0)),
              std::bit_cast<std::uint64_t>(std::sqrt(x)))
        << x;
  }
}

double ulp_distance(double a, double b) {
  if (a == b) return 0.0;
  const double u = std::abs(b) * std::numeric_limits<double>::epsilon();
  return std::abs(a - b) / u;
}

TEST(VectorMath, VlogMatchesStdLogWithinUlps) {
  // The generator only evaluates vlog on (0, 1] (log of 1−u, u ∈ [0,1)), so
  // that is the accuracy domain that matters; sweep it densely plus the
  // smallest inputs 1−u can produce.
  util::Rng rng{123};
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform());
  xs.push_back(0x1.0p-53);
  xs.push_back(1.0);
  xs.push_back(0.5);
  xs.push_back(1.0 - 0x1.0p-53);
  for (double& x : xs)
    if (x <= 0.0) x = 0.5;

  for (int width : {1, 2, 4, 8}) {
    std::vector<double> out(xs.size());
    vlog_lanes(xs, out, width);
    double worst = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      worst = std::max(worst, ulp_distance(out[i], std::log(xs[i])));
    EXPECT_LT(worst, 4.0) << "width " << width;
  }
}

TEST(VectorMath, VsincosMatchesLibmClosely) {
  // u ∈ [0, 1) turns — the full argument range the generator uses.
  util::Rng rng{321};
  std::vector<double> us;
  for (int i = 0; i < 20000; ++i) us.push_back(rng.uniform());
  us.push_back(0.0);
  us.push_back(0.25);
  us.push_back(0.5);
  us.push_back(0.75);
  us.push_back(1.0 - 0x1.0p-53);

  constexpr double kTwoPi = 6.283185307179586476925286766559;
  for (int width : {1, 2, 4, 8}) {
    std::vector<double> s(us.size()), c(us.size());
    vsincos_2pi_lanes(us, s, c, width);
    double worst = 0.0;
    for (std::size_t i = 0; i < us.size(); ++i) {
      worst = std::max(worst, std::abs(s[i] - std::sin(kTwoPi * us[i])));
      worst = std::max(worst, std::abs(c[i] - std::cos(kTwoPi * us[i])));
    }
    EXPECT_LT(worst, 2e-15) << "width " << width;
  }
}

TEST(VectorMath, WidthInvariantBitForBit) {
  // The determinism keystone: the kernels are element-wise pure, so the same
  // input produces the same bits at every lane width.
  util::Rng rng{77};
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform());
  std::vector<double> ref(xs.size()), refs(xs.size()), refc(xs.size());
  vlog_lanes(xs, ref, 1);
  vsincos_2pi_lanes(xs, refs, refc, 1);
  for (int width : {2, 4, 8}) {
    std::vector<double> out(xs.size()), s(xs.size()), c(xs.size());
    vlog_lanes(xs, out, width);
    vsincos_2pi_lanes(xs, s, c, width);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(ref[i]))
          << "vlog width " << width << " i " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s[i]),
                std::bit_cast<std::uint64_t>(refs[i]))
          << "sin width " << width << " i " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c[i]),
                std::bit_cast<std::uint64_t>(refc[i]))
          << "cos width " << width << " i " << i;
    }
  }
}

TEST(VectorMath, RejectsInvalidWidth) {
  std::vector<double> x(4, 0.5), out(4);
  EXPECT_THROW(vlog_lanes(x, out, 3), std::invalid_argument);
  EXPECT_THROW(vlog_lanes(x, out, 16), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::simd
