#include "analog/sigma_delta.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::analog {

using util::Rng;
using util::Volts;

SigmaDeltaModulator::SigmaDeltaModulator(const SigmaDeltaSpec& spec, Rng rng)
    : spec_(spec), rng_(rng), initial_rng_(rng) {
  if (spec.full_scale.value() <= 0.0)
    throw std::invalid_argument("SigmaDeltaModulator: bad full scale");
}

int SigmaDeltaModulator::step(Volts input) {
  const double fs = spec_.full_scale.value();
  double u = input.value() / fs;  // normalise to ±1
  overloaded_ = std::abs(u) > 0.9;
  u = std::clamp(u, -1.0, 1.0);
  u += rng_.gaussian(0.0, spec_.dither_lsb);

  const double fb = static_cast<double>(prev_bit_);
  const double leak = 1.0 - spec_.integrator_leak;
  // Boser-Wooley 2nd-order loop, 0.5/0.5 integrator gains (stable to ~0.9 FS).
  s1_ = leak * s1_ + 0.5 * (u - fb);
  s1_ = std::clamp(s1_, -spec_.integrator_saturation, spec_.integrator_saturation);
  s2_ = leak * s2_ + 0.5 * (s1_ - fb);
  s2_ = std::clamp(s2_, -spec_.integrator_saturation, spec_.integrator_saturation);

  prev_bit_ = (s2_ >= 0.0) ? 1 : -1;
  return prev_bit_;
}

SigmaDeltaModulator::FrameState SigmaDeltaModulator::frame_state() const {
  return FrameState{rng_,
                    spec_.dither_lsb,
                    spec_.full_scale.value(),
                    1.0 - spec_.integrator_leak,
                    spec_.integrator_saturation,
                    s1_,
                    s2_,
                    static_cast<double>(prev_bit_),
                    overloaded_,
                    false};
}

void SigmaDeltaModulator::commit_frame(const FrameState& k) {
  rng_ = k.dither_rng;
  s1_ = k.s1;
  s2_ = k.s2;
  prev_bit_ = (k.fb >= 0.0) ? 1 : -1;
  overloaded_ = k.last_overload;
}

void SigmaDeltaModulator::reset() {
  s1_ = s2_ = 0.0;
  prev_bit_ = 1;
  overloaded_ = false;
  // Rewind the dither stream too — without this a reset modulator produces a
  // different bitstream than a freshly constructed one and replay diverges.
  rng_ = initial_rng_;
}

}  // namespace aqua::analog
