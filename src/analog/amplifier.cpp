#include "analog/amplifier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::analog {

using util::Hertz;
using util::Kelvin;
using util::Rng;
using util::Seconds;
using util::Volts;

InstrumentAmp::InstrumentAmp(const InstrumentAmpSpec& spec, Hertz sample_rate,
                             Rng rng)
    : spec_(spec),
      offset_(Volts{rng.gaussian(0.0, spec.offset_sigma.value())}),
      white_(spec.noise_density, sample_rate, rng.split()),
      flicker_(spec.flicker_density_1hz, util::hertz(1.0), sample_rate,
               rng.split()),
      pole_(0.0, Seconds{1.0 / (2.0 * 3.14159265358979323846 *
                                spec.bandwidth.value())}) {
  if (spec.gain <= 0.0) throw std::invalid_argument("InstrumentAmp: bad gain");
}

double InstrumentAmp::step(Volts differential_input, Seconds dt,
                           Kelvin ambient) {
  const double drift =
      spec_.offset_drift_per_k * (ambient.value() - util::celsius(25.0).value());
  const double input = differential_input.value() + offset_.value() + drift +
                       white_.sample() + flicker_.sample();
  const double ideal = spec_.gain * input;
  const double band_limited = pole_.step(ideal, dt);
  const double half_rail = 0.5 * spec_.rail.value();
  saturated_ = std::abs(band_limited) > half_rail;
  return std::clamp(band_limited, -half_rail, half_rail);
}

InstrumentAmp::FrameState InstrumentAmp::frame_state(Seconds dt,
                                                      Kelvin ambient) {
  const double drift =
      spec_.offset_drift_per_k * (ambient.value() - util::celsius(25.0).value());
  return FrameState{white_.frame_state(),    flicker_.frame_state(),
                    offset_.value(),         drift,
                    spec_.gain,              0.5 * spec_.rail.value(),
                    pole_.decay(dt),         pole_.value(),
                    saturated_};
}

void InstrumentAmp::commit_frame(const FrameState& k) {
  white_.commit_frame(k.white);
  flicker_.commit_frame(k.flicker);
  pole_.reset(k.y);
  saturated_ = k.saturated;
}

void InstrumentAmp::reset() {
  white_.reset();
  flicker_.reset();
  pole_.reset(0.0);
  saturated_ = false;
}

void InstrumentAmp::set_gain(double gain) {
  if (gain <= 0.0) throw std::invalid_argument("InstrumentAmp: bad gain");
  spec_.gain = gain;
}

}  // namespace aqua::analog
