#include "analog/dac.hpp"

#include <cmath>
#include <stdexcept>

namespace aqua::analog {

using util::Rng;
using util::Volts;

ThermometerDac::ThermometerDac(const ThermometerDacSpec& spec, Rng rng)
    : spec_(spec), buffer_(0.0, spec.settling_tau), rng_(rng) {
  if (spec.bits < 4 || spec.bits > 14)
    throw std::invalid_argument("ThermometerDac: bits out of range [4,14]");
  if (spec.full_scale.value() <= 0.0)
    throw std::invalid_argument("ThermometerDac: bad full scale");
}

std::vector<double> ThermometerDac::mismatch_table() const {
  Rng rng = rng_;
  const std::size_t n = std::size_t{1} << spec_.bits;
  std::vector<double> cumulative(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double weight = 1.0 + rng.gaussian(0.0, spec_.element_mismatch_sigma);
    cumulative[i + 1] = cumulative[i] + weight;
  }
  return cumulative;
}

void ThermometerDac::write_voltage(Volts v) {
  const double frac = v.value() / spec_.full_scale.value();
  write_code(static_cast<int>(std::lround(frac * max_code())));
}

void ThermometerDac::reset() {
  write_code(0);
  buffer_.reset(0.0);
}

void ThermometerDac::load_state(state::Reader& r) {
  const int code = r.i32();
  if (code < 0 || code > max_code())
    throw state::Error("state: DAC code outside the converter's range");
  write_code(code);
  buffer_.reset(r.f64());
}

Volts ThermometerDac::ideal_output(int code) const {
  const int c = std::clamp(code, 0, max_code());
  return Volts{spec_.full_scale.value() * static_cast<double>(c) /
               static_cast<double>(max_code())};
}

double ThermometerDac::inl_lsb(int code) const {
  const int c = std::clamp(code, 0, max_code());
  const double lsb = spec_.full_scale.value() / static_cast<double>(max_code());
  const double frac = mismatch_drawn()
                          ? output_fraction(cumulative_, c)
                          : output_fraction(mismatch_table(), c);
  const double actual = spec_.full_scale.value() * frac;
  return (actual - ideal_output(c).value()) / lsb;
}

}  // namespace aqua::analog
