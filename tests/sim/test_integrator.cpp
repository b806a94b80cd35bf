#include "sim/integrator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace aqua::sim {
namespace {

using util::Seconds;

TEST(Rk4, ExponentialDecayFourthOrder) {
  // dy/dt = −y, y(0)=1 → y(1)=e⁻¹. RK4 at dt=0.1 should be accurate to ~1e-7.
  std::vector<double> y{1.0};
  const OdeRhs f = [](double, std::span<const double> yy, std::span<double> d) {
    d[0] = -yy[0];
  };
  for (int i = 0; i < 10; ++i) rk4_step(f, 0.1 * i, Seconds{0.1}, y);
  EXPECT_NEAR(y[0], std::exp(-1.0), 5e-7);
}

TEST(Rk4, HarmonicOscillatorConservesAmplitude) {
  std::vector<double> y{1.0, 0.0};  // x, v
  const OdeRhs f = [](double, std::span<const double> yy, std::span<double> d) {
    d[0] = yy[1];
    d[1] = -yy[0];
  };
  const double dt = 0.01;
  for (int i = 0; i < 628; ++i) rk4_step(f, dt * i, Seconds{dt}, y);  // ~one period
  EXPECT_NEAR(y[0], 1.0, 1e-4);
  EXPECT_NEAR(y[1], 0.0, 5e-3);
}

TEST(Rk4, TimeDependentRhs) {
  // dy/dt = t → y(T) = T²/2.
  std::vector<double> y{0.0};
  const OdeRhs f = [](double t, std::span<const double>, std::span<double> d) {
    d[0] = t;
  };
  const double dt = 0.05;
  for (int i = 0; i < 40; ++i) rk4_step(f, dt * i, Seconds{dt}, y);
  EXPECT_NEAR(y[0], 2.0, 1e-9);
}

TEST(Euler, FirstOrderConvergence) {
  std::vector<double> y{1.0};
  const OdeRhs f = [](double, std::span<const double> yy, std::span<double> d) {
    d[0] = -yy[0];
  };
  for (int i = 0; i < 1000; ++i) euler_step(f, 0.0, Seconds{0.001}, y);
  EXPECT_NEAR(y[0], std::exp(-1.0), 2e-4);
}

TEST(FirstOrderLag, AnalyticStepIsExact) {
  FirstOrderLag lag{0.0, Seconds{0.5}};
  lag.step(1.0, Seconds{0.5});  // one tau → 1 − e⁻¹
  EXPECT_NEAR(lag.value(), 1.0 - std::exp(-1.0), 1e-12);
}

TEST(FirstOrderLag, LargeStepLandsOnTarget) {
  FirstOrderLag lag{5.0, Seconds{1e-6}};
  lag.step(2.0, Seconds{1.0});
  EXPECT_NEAR(lag.value(), 2.0, 1e-12);
}

TEST(FirstOrderLag, ZeroTauTracksInstantly) {
  FirstOrderLag lag{0.0, Seconds{0.0}};
  lag.step(42.0, Seconds{1e-9});
  EXPECT_DOUBLE_EQ(lag.value(), 42.0);
}

TEST(FirstOrderLag, ResetAndRetune) {
  FirstOrderLag lag{0.0, Seconds{1.0}};
  lag.reset(3.0);
  EXPECT_DOUBLE_EQ(lag.value(), 3.0);
  lag.set_tau(Seconds{2.0});
  lag.step(3.0, Seconds{10.0});
  EXPECT_NEAR(lag.value(), 3.0, 1e-12);
  EXPECT_THROW(lag.set_tau(Seconds{-1.0}), std::invalid_argument);
}

TEST(FirstOrderLag, DecayIsMemoisedPerDtAndTau) {
  // decay() memoises exp(-dt/τ) on dt; a new dt or a retune recomputes it.
  FirstOrderLag lag{0.0, Seconds{1.0}};
  EXPECT_EQ(lag.decay(Seconds{0.5}), std::exp(-0.5));
  EXPECT_EQ(lag.decay(Seconds{0.5}), std::exp(-0.5));
  EXPECT_EQ(lag.decay(Seconds{0.25}), std::exp(-0.25));
  lag.set_tau(Seconds{2.0});
  EXPECT_EQ(lag.decay(Seconds{0.25}), std::exp(-0.25 / 2.0));
  lag.set_tau(Seconds{0.0});
  EXPECT_EQ(lag.decay(Seconds{0.25}), 0.0);
}

TEST(FirstOrderLag, RejectsNegativeTau) {
  EXPECT_THROW((FirstOrderLag{0.0, Seconds{-0.1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::sim
