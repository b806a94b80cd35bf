// cic.hpp — cascaded integrator-comb (Hogenauer) decimator. This is the
// canonical first stage after a 1-bit ΣΔ modulator: N integrators at the
// modulator rate, decimation by R, N combs at the output rate. The ISIF
// channel decimates its 16-bit ΣΔ with exactly this structure ("the digital
// section decimates the ΣΔ ADC output and low-pass filters", paper §4).
//
// The accumulators are wrap-around integers, exactly like the silicon: a CIC
// integrator grows without bound under DC input (mean·fs·t), which in
// floating point eventually destroys the comb differences through rounding —
// a bug that only appears after minutes of simulated time. Two's-complement
// wrap keeps the differences exact as long as the (normalised) output
// magnitude fits the word, which the constructor checks.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "state/serial.hpp"

namespace aqua::dsp {

class CicDecimator {
 public:
  /// order N (typically modulator order + 1), decimation ratio R ≥ 1 (R = 1
  /// degenerates to a pass-through with the filter's fill-in latency),
  /// differential delay M (1 or 2). The product (R·M)^N must stay below 2^31
  /// so the integer datapath (input quantised to Q31) cannot alias.
  CicDecimator(int order, int decimation, int differential_delay = 1);

  /// Pushes one modulator-rate sample; returns the decimated output when a
  /// full block of R inputs has been accumulated (normalised by the CIC gain
  /// (R·M)^N so that a constant input maps to itself).
  std::optional<double> push(double x);

  /// Input quantisation: Q31 over the nominal ±1 range.
  static constexpr double kInputScale = 2147483648.0;  // 2^31

  /// The integrator cascade as plain data for the fused frame loop
  /// (DESIGN.md §9). A frame starts and ends at phase 0, so its one output
  /// is due on its last push. The loop adds the quantised ±1 bits with
  /// push()'s exact wrap-around adds (±1.0 · 2^31 is exact and llround(-x) ==
  /// -llround(x): a bit quantises to one of two constants).
  struct FrameState {
    std::array<std::uint64_t, 8> acc;
    int order;
  };
  /// Call on a decimation boundary only (phase() == 0, the channel's frame
  /// alignment).
  [[nodiscard]] FrameState frame_state() const;
  /// Writes the advanced integrators back, runs the comb cascade on the
  /// newest integrator word and returns the normalised decimated output —
  /// push()'s tail for the frame's last sample.
  double commit_frame(const FrameState& k);

  void reset();

  [[nodiscard]] int order() const { return order_; }
  /// Inputs pushed since the last decimated output.
  [[nodiscard]] int phase() const { return phase_; }
  [[nodiscard]] int decimation() const { return decimation_; }
  /// DC gain before normalisation, (R·M)^N.
  [[nodiscard]] double raw_gain() const;
  /// Output sample rate for a given input rate.
  [[nodiscard]] double output_rate(double input_rate) const {
    return input_rate / decimation_;
  }

  /// Checkpoint support: decimation phase, integrator words and comb delay
  /// lines (their shapes are fixed by the construction-time config).
  void save_state(state::Writer& w) const {
    w.i32(phase_);
    w.size(integrators_.size());
    for (const std::uint64_t acc : integrators_) w.u64(acc);
    w.size(comb_delays_.size());
    for (const auto& comb : comb_delays_) {
      w.size(comb.size());
      for (const std::uint64_t d : comb) w.u64(d);
    }
  }
  void load_state(state::Reader& r) {
    phase_ = r.i32();
    if (r.size(8) != integrators_.size())
      throw state::Error("CicDecimator: integrator count mismatch");
    for (std::uint64_t& acc : integrators_) acc = r.u64();
    if (r.size(8) != comb_delays_.size())
      throw state::Error("CicDecimator: comb count mismatch");
    for (auto& comb : comb_delays_) {
      if (r.size(8) != comb.size())
        throw state::Error("CicDecimator: comb delay depth mismatch");
      for (std::uint64_t& d : comb) d = r.u64();
    }
  }

 private:
  /// The comb cascade and normalisation: the output side of push().
  double comb();

  int order_;
  int decimation_;
  int delay_;
  double output_scale_;  // raw_gain() · kInputScale, computed once
  int phase_ = 0;
  std::vector<std::uint64_t> integrators_;              // wrap-around
  std::vector<std::vector<std::uint64_t>> comb_delays_; // per comb: M-deep
};

}  // namespace aqua::dsp
