#include "analog/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace aqua::analog {
namespace {

using util::hertz;
using util::Rng;

TEST(WhiteNoise, SigmaMatchesDensityAndRate) {
  // sigma = density·sqrt(fs/2).
  WhiteNoise n{20e-9, hertz(200e3), Rng{1}};
  EXPECT_NEAR(n.sigma(), 20e-9 * std::sqrt(100e3), 1e-12);
}

TEST(WhiteNoise, SampleStatistics) {
  WhiteNoise n{1e-3, hertz(2000.0), Rng{2}};
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    const double s = n.sample();
    sum += s;
    sum2 += s * s;
  }
  const double sigma_expected = 1e-3 * std::sqrt(1000.0);
  EXPECT_NEAR(sum / kN, 0.0, sigma_expected * 0.05);
  EXPECT_NEAR(std::sqrt(sum2 / kN), sigma_expected, sigma_expected * 0.03);
}

TEST(WhiteNoise, Validation) {
  EXPECT_THROW((WhiteNoise{-1.0, hertz(1000.0), Rng{1}}), std::invalid_argument);
  EXPECT_THROW((WhiteNoise{1.0, hertz(0.0), Rng{1}}), std::invalid_argument);
}

TEST(FlickerNoise, LowFrequencyPowerDominates) {
  // Split a long record into coarse bins: 1/f noise has larger variance in
  // slow averages than white noise of the same per-sample variance.
  FlickerNoise n{1e-6, hertz(1.0), hertz(1000.0), Rng{3}};
  std::vector<double> samples;
  for (int i = 0; i < 65536; ++i) samples.push_back(n.sample());
  // Variance of per-1024-sample means (captures low-frequency content).
  double var_means = 0.0, mean_all = 0.0;
  for (double s : samples) mean_all += s;
  mean_all /= samples.size();
  const int block = 1024;
  const int nblocks = samples.size() / block;
  for (int b = 0; b < nblocks; ++b) {
    double m = 0.0;
    for (int i = 0; i < block; ++i) m += samples[b * block + i];
    m /= block;
    var_means += (m - mean_all) * (m - mean_all);
  }
  var_means /= nblocks;
  // White noise would give var_means ≈ var_sample/1024; flicker is far above.
  double var_sample = 0.0;
  for (double s : samples) var_sample += (s - mean_all) * (s - mean_all);
  var_sample /= samples.size();
  EXPECT_GT(var_means, 10.0 * var_sample / block);
}

TEST(FlickerNoise, Validation) {
  EXPECT_THROW((FlickerNoise{1.0, hertz(0.0), hertz(100.0), Rng{1}}),
               std::invalid_argument);
}

TEST(FlickerNoise, KernelSuffixCacheMatchesFullChain) {
  // The frame state reuses suffix partial sums of the row chain; every
  // cached partial must be numerically identical to re-summing the chain, so
  // interleaving frame draws with scalar draws stays aligned.
  FlickerNoise a{1e-6, hertz(1.0), hertz(256e3), Rng{13}};
  FlickerNoise b{1e-6, hertz(1.0), hertz(256e3), Rng{13}};
  for (int round = 0; round < 5; ++round) {
    auto k = b.frame_state();
    for (int i = 0; i < 37; ++i)
      EXPECT_EQ(a.sample(), k.draw_with(k.rng.gaussian()));
    b.commit_frame(k);
  }
  EXPECT_EQ(a.sample(), b.sample());
}

TEST(ThermalNoise, JohnsonFormula) {
  // 1 kΩ at 300 K: √(4·1.38e-23·300·1000) ≈ 4.07 nV/√Hz.
  EXPECT_NEAR(thermal_noise_density(util::ohms(1000.0), util::Kelvin{300.0}),
              4.07e-9, 0.02e-9);
}

TEST(ThermalNoise, ScalesWithSqrtR) {
  const double n1 = thermal_noise_density(util::ohms(50.0), util::Kelvin{293.0});
  const double n4 = thermal_noise_density(util::ohms(200.0), util::Kelvin{293.0});
  EXPECT_NEAR(n4 / n1, 2.0, 1e-9);
}

TEST(ThermalNoise, Validation) {
  EXPECT_THROW(
      (void)thermal_noise_density(util::ohms(-1.0), util::Kelvin{300.0}),
      std::invalid_argument);
  EXPECT_THROW((void)thermal_noise_density(util::ohms(1.0), util::Kelvin{0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
