// dac.hpp — thermometer-coded DAC model. The ISIF "sensor driving stage ... is
// provided by a set of configurable 12 bit and 10 bit thermometer DACs"
// (paper §3); the CTA loop actuates the bridge supply through one of them.
// Thermometer coding makes the transfer inherently monotonic; element
// mismatch appears as INL, modelled as a seeded random walk over the unit
// elements. A first-order settling lag models the output buffer.
//
// The mismatch table (2^bits + 1 doubles) is drawn the first time the DAC
// latches a nonzero code, from a copy of the Rng it was built with. Code 0
// outputs exactly +0.0 V with or without it, so a DAC that is never driven
// never allocates — the platform builds six and the CTA loop drives one.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/integrator.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::analog {

struct ThermometerDacSpec {
  int bits = 12;                         ///< 12 or 10 on ISIF
  util::Volts full_scale = util::volts(8.0);
  double element_mismatch_sigma = 2e-4;  ///< relative unit-element spread
  util::Seconds settling_tau = util::Seconds{2e-6};
};

class ThermometerDac {
 public:
  ThermometerDac(const ThermometerDacSpec& spec, util::Rng rng);

  /// Latches a new input code (clamped to [0, 2^bits − 1]). The first
  /// nonzero code draws the mismatch table.
  void write_code(int code) {
    const int c = std::clamp(code, 0, max_code());
    // output_ already holds code_'s output. An undrawn DAC has held code 0
    // throughout, whose output is +0.0 V with or without the table
    // (cumulative_[0] = 0), so the first change draws it.
    if (c == code_) return;
    code_ = c;
    if (cumulative_.empty()) [[unlikely]] draw_mismatch();
    output_ = spec_.full_scale.value() * output_fraction(cumulative_, code_);
  }

  /// Convenience: latches the code closest to the requested voltage.
  void write_voltage(util::Volts v);

  /// Advances the output buffer by dt and returns the settled output voltage.
  util::Volts step(util::Seconds dt) {
    return util::Volts{buffer_.step(output_, dt)};
  }

  /// Returns to the post-construction state: code 0, buffer discharged. The
  /// element-mismatch draw is a part property and survives reset.
  void reset();

  [[nodiscard]] int code() const { return code_; }
  [[nodiscard]] int max_code() const { return (1 << spec_.bits) - 1; }
  [[nodiscard]] util::Volts ideal_output(int code) const;
  /// Static (settled) output for the current code including mismatch.
  [[nodiscard]] util::Volts static_output() const {
    return util::Volts{output_};
  }
  /// Integral nonlinearity at a code, in LSB. On a DAC that was never driven
  /// it draws a temporary table and leaves the DAC as it was.
  [[nodiscard]] double inl_lsb(int code) const;
  /// Whether the element-mismatch table has been drawn (first nonzero code).
  [[nodiscard]] bool mismatch_drawn() const { return !cumulative_.empty(); }

  /// Checkpoint support: latched code and buffer voltage. The element
  /// mismatch is a part draw, reproduced from the construction Rng.
  void save_state(state::Writer& w) const {
    w.i32(code_);
    w.f64(buffer_.value());
  }
  /// Throws state::Error on a code outside [0, max_code()].
  void load_state(state::Reader& r);

 private:
  /// Prefix sums of the unit-element weights (nominal 1.0), drawn from a
  /// copy of `rng_`: every call returns the same table.
  [[nodiscard]] std::vector<double> mismatch_table() const;
  void draw_mismatch() { cumulative_ = mismatch_table(); }
  /// Thermometer decode: the first `code` unit elements are on. Normalising
  /// by the measured total weight models a trimmed full-scale reference.
  [[nodiscard]] double output_fraction(const std::vector<double>& table,
                                       int code) const {
    return table[static_cast<std::size_t>(code)] / table.back() *
           static_cast<double>(max_code() + 1) /
           static_cast<double>(max_code());
  }

  ThermometerDacSpec spec_;
  std::vector<double> cumulative_;  // empty until the first nonzero code
  int code_ = 0;
  double output_ = 0.0;  // static output at code_
  sim::FirstOrderLag buffer_;
  util::Rng rng_;  // the part's mismatch stream, never advanced
};

}  // namespace aqua::analog
