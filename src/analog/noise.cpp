#include "analog/noise.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace aqua::analog {

using util::Hertz;
using util::Kelvin;
using util::Ohms;
using util::Rng;

WhiteNoise::WhiteNoise(double density, Hertz sample_rate, Rng rng)
    : sigma_(density * std::sqrt(0.5 * sample_rate.value())),
      rng_(rng),
      initial_rng_(rng) {
  if (density < 0.0 || sample_rate.value() <= 0.0)
    throw std::invalid_argument("WhiteNoise: bad parameters");
}

double WhiteNoise::sample() { return rng_.gaussian(0.0, sigma_); }

void WhiteNoise::reset() { rng_ = initial_rng_; }

FlickerNoise::FlickerNoise(double density_at_corner, Hertz corner,
                           Hertz sample_rate, Rng rng)
    : rng_(rng) {
  if (density_at_corner < 0.0 || corner.value() <= 0.0 ||
      sample_rate.value() <= 0.0)
    throw std::invalid_argument("FlickerNoise: bad parameters");
  // Voss-McCartney with kRows rows has a per-row variance contribution; the
  // empirical density of the unit-variance generator at frequency f is
  // ~1/sqrt(f/fs · kRows). Calibrate so density(corner) matches the spec.
  const double unit_density_at_corner =
      1.0 / std::sqrt(corner.value() / sample_rate.value() * kRows);
  scale_ = density_at_corner * std::sqrt(sample_rate.value()) /
           (unit_density_at_corner * std::sqrt(sample_rate.value()));
  // The two sqrt(fs) factors cancel; kept explicit for clarity of derivation.
  for (auto& r : rows_) r = rng_.gaussian();
  initial_rows_ = rows_;
  initial_rng_ = rng_;
}

void FlickerNoise::reset() {
  rows_ = initial_rows_;
  counter_ = 0;
  rng_ = initial_rng_;
}

double FlickerNoise::sample() {
  ++counter_;
  // Update the row selected by the number of trailing zeros of the counter.
  const int row = std::countr_zero(counter_) % kRows;
  rows_[static_cast<std::size_t>(row)] = rng_.gaussian();
  // Chain order is high row -> low row. The frequently-updated low rows sit at
  // the tail of the chain, which lets FrameState::draw_with() resume a cached
  // partial sum; the scalar path just walks the whole chain. Both paths add in this exact
  // order, so they are bit-identical.
  double acc = 0.0;
  for (int j = kRows - 1; j >= 0; --j) acc += rows_[static_cast<std::size_t>(j)];
  return scale_ * acc / std::sqrt(static_cast<double>(kRows));
}

double thermal_noise_density(Ohms resistance, Kelvin t) {
  if (resistance.value() < 0.0 || t.value() <= 0.0)
    throw std::invalid_argument("thermal_noise_density: bad parameters");
  constexpr double kBoltzmann = 1.380649e-23;
  return std::sqrt(4.0 * kBoltzmann * t.value() * resistance.value());
}

}  // namespace aqua::analog
