#include "analog/amplifier.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace aqua::analog {
namespace {

using util::hertz;
using util::millivolts;
using util::Rng;
using util::Seconds;
using util::volts;

InstrumentAmpSpec quiet_spec() {
  InstrumentAmpSpec s;
  s.offset_sigma = volts(0.0);
  s.noise_density = 0.0;
  s.flicker_density_1hz = 0.0;
  return s;
}

TEST(InstrumentAmp, DcGainApplied) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  double y = 0.0;
  for (int i = 0; i < 10000; ++i)
    y = amp.step(millivolts(10.0), Seconds{1e-6});
  EXPECT_NEAR(y, 0.16, 1e-4);  // 10 mV · 16
}

TEST(InstrumentAmp, GainProgrammable) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  amp.set_gain(64.0);
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = amp.step(millivolts(5.0), Seconds{1e-6});
  EXPECT_NEAR(y, 0.32, 1e-3);
  EXPECT_THROW(amp.set_gain(0.0), std::invalid_argument);
}

TEST(InstrumentAmp, SaturatesAtRails) {
  InstrumentAmp amp{quiet_spec(), hertz(1e6), Rng{1}};
  double y = 0.0;
  for (int i = 0; i < 10000; ++i) y = amp.step(volts(1.0), Seconds{1e-6});
  EXPECT_DOUBLE_EQ(y, 1.65);  // rail/2 of 3.3 V
  EXPECT_TRUE(amp.saturated());
}

TEST(InstrumentAmp, BandwidthLimitsStepResponse) {
  InstrumentAmpSpec s = quiet_spec();
  s.bandwidth = hertz(1000.0);  // tau ≈ 159 µs
  InstrumentAmp amp{s, hertz(1e6), Rng{1}};
  const double y1 = amp.step(millivolts(10.0), Seconds{1e-6});
  EXPECT_LT(y1, 0.16 * 0.05);  // far from settled after 1 µs
}

TEST(InstrumentAmp, OffsetDrawnFromSpec) {
  InstrumentAmpSpec s = quiet_spec();
  s.offset_sigma = millivolts(1.0);
  double spread = 0.0;
  for (int seed = 0; seed < 50; ++seed) {
    InstrumentAmp amp{s, hertz(1e6), Rng{static_cast<std::uint64_t>(seed)}};
    spread = std::max(spread, std::abs(amp.offset().value()));
  }
  EXPECT_GT(spread, 0.5e-3);  // some parts near ±1 sigma
  EXPECT_LT(spread, 5e-3);    // none absurdly far
}

TEST(InstrumentAmp, NoiseAppearsAtOutput) {
  InstrumentAmpSpec s = quiet_spec();
  s.noise_density = 100e-9;
  InstrumentAmp amp{s, hertz(1e6), Rng{7}};
  util::Rng unused{0};
  double sum2 = 0.0;
  // settle the pole first
  for (int i = 0; i < 2000; ++i) (void)amp.step(volts(0.0), Seconds{1e-6});
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double y = amp.step(volts(0.0), Seconds{1e-6});
    sum2 += y * y;
  }
  EXPECT_GT(std::sqrt(sum2 / kN), 1e-5);  // clearly nonzero
}

TEST(InstrumentAmp, OffsetDriftWithAmbient) {
  InstrumentAmpSpec s = quiet_spec();
  s.offset_drift_per_k = 1e-3;
  InstrumentAmp amp{s, hertz(1e6), Rng{1}};
  double y_cold = 0.0, y_hot = 0.0;
  for (int i = 0; i < 5000; ++i)
    y_cold = amp.step(volts(0.0), Seconds{1e-6}, util::celsius(25.0));
  for (int i = 0; i < 5000; ++i)
    y_hot = amp.step(volts(0.0), Seconds{1e-6}, util::celsius(35.0));
  EXPECT_NEAR(y_hot - y_cold, 16.0 * 1e-3 * 10.0, 1e-3);
}

TEST(InstrumentAmp, RejectsBadGainSpec) {
  InstrumentAmpSpec s = quiet_spec();
  s.gain = 0.0;
  EXPECT_THROW((InstrumentAmp{s, hertz(1e6), Rng{1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
