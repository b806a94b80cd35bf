// amplifier.hpp — ISIF readout stage model. The input channel's operational
// amplifier "can be programmed to implement a charge amplifier, a
// trans-resistive stage or an instrument amplifier" (paper §3); the MAF
// application uses the instrument-amplifier configuration on the bridge taps.
// Modelled non-idealities: programmable gain, input-referred offset with
// drift, white + flicker input noise, single-pole bandwidth, rail saturation.
#pragma once

#include "analog/noise.hpp"
#include "sim/integrator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::analog {

struct InstrumentAmpSpec {
  double gain = 16.0;                       ///< programmable: 1..128 on ISIF
  /// Residual input offset spread after the ISIF readout stage's auto-zero
  /// trim. (An untrimmed CMOS amp would sit near ±0.5 mV — enough to flip the
  /// sign of the bridge error at low drive and deadlock the CTA bootstrap.)
  util::Volts offset_sigma = util::millivolts(0.1);
  double offset_drift_per_k = 2e-6;          ///< V/K of ambient drift
  double noise_density = 20e-9;              ///< V/√Hz white, input-referred
  double flicker_density_1hz = 200e-9;       ///< V/√Hz at 1 Hz
  util::Hertz bandwidth = util::hertz(200e3);
  util::Volts rail = util::volts(3.3);       ///< output saturates at ±rail/2
                                             ///< around mid-supply (bipolar model)
};

class InstrumentAmp {
 public:
  /// `sample_rate` is the rate at which step() will be called (the analog
  /// solver tick); the noise generators are scaled to it. The offset is drawn
  /// once from `rng`, as a physical part's would be.
  InstrumentAmp(const InstrumentAmpSpec& spec, util::Hertz sample_rate,
                util::Rng rng);

  /// Processes one differential input sample; returns the amplified output.
  double step(util::Volts differential_input, util::Seconds dt,
              util::Kelvin ambient = util::celsius(25.0));

  /// The stage as plain data for the fused frame loop (DESIGN.md §9): both
  /// noise streams, step()'s per-frame constants (drift at `ambient`, pole
  /// decay for `dt`, half rail), the pole value and saturation flag.
  struct FrameState {
    WhiteNoise::FrameState white;
    FlickerNoise::FrameState flicker;
    double offset, drift, gain, half_rail, a, y;
    bool saturated;
  };
  [[nodiscard]] FrameState frame_state(util::Seconds dt, util::Kelvin ambient);
  void commit_frame(const FrameState& k);

  /// Returns the stage to its post-construction state: pole discharged,
  /// saturation flag cleared, noise streams rewound. The offset is a one-time
  /// physical draw (a part property, not state) and survives reset.
  void reset();

  void set_gain(double gain);
  [[nodiscard]] double gain() const { return spec_.gain; }
  [[nodiscard]] util::Volts offset() const { return offset_; }
  [[nodiscard]] bool saturated() const { return saturated_; }

  /// Checkpoint support: noise streams, pole value and saturation flag. The
  /// offset is a part draw, reproduced by reconstruction — never serialised.
  void save_state(state::Writer& w) const {
    white_.save_state(w);
    flicker_.save_state(w);
    w.f64(pole_.value());
    w.boolean(saturated_);
  }
  void load_state(state::Reader& r) {
    white_.load_state(r);
    flicker_.load_state(r);
    pole_.reset(r.f64());
    saturated_ = r.boolean();
  }

 private:
  InstrumentAmpSpec spec_;
  util::Volts offset_;
  WhiteNoise white_;
  FlickerNoise flicker_;
  sim::FirstOrderLag pole_;
  bool saturated_ = false;
};

}  // namespace aqua::analog
