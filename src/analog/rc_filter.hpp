// rc_filter.hpp — continuous-time anti-aliasing filter model (the ISIF channel
// has "low-pass filtering for anti-aliasing purpose" ahead of the ΣΔ ADC).
// Modelled as one or two cascaded RC poles stepped analytically, so it is
// exact for piecewise-constant inputs at any dt.
#pragma once

#include <array>
#include <vector>

#include "sim/integrator.hpp"
#include "state/serial.hpp"
#include "util/units.hpp"

namespace aqua::analog {

class RcLowpass {
 public:
  /// `poles` identical first-order sections at cutoff `fc`.
  RcLowpass(util::Hertz fc, int poles = 1);

  double step(double input, util::Seconds dt);

  /// The cascade as plain data for the fused frame loop (DESIGN.md §9): one
  /// decay factor and pole value per stage (at most 4, the constructor's cap).
  struct FrameState {
    std::array<double, 4> a{}, y{};
    int poles = 0;
  };
  [[nodiscard]] FrameState frame_state(util::Seconds dt);
  void commit_frame(const FrameState& k);

  void reset(double value = 0.0);
  [[nodiscard]] double value() const;
  [[nodiscard]] util::Hertz cutoff() const { return fc_; }

  /// Checkpoint support: one pole value per stage (stage count is config).
  void save_state(state::Writer& w) const {
    w.size(stages_.size());
    for (const sim::FirstOrderLag& stage : stages_) w.f64(stage.value());
  }
  void load_state(state::Reader& r) {
    if (r.size(8) != stages_.size())
      throw state::Error("RcLowpass: stage count mismatch");
    for (sim::FirstOrderLag& stage : stages_) stage.reset(r.f64());
  }

 private:
  util::Hertz fc_;
  std::vector<sim::FirstOrderLag> stages_;
};

}  // namespace aqua::analog
