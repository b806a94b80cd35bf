// integrator.hpp — explicit fixed-step ODE integration for the non-stiff
// mechanical models (turbine rotor, valve/pump actuators). The stiff thermal
// side uses phys::ThermalNetwork's exponential-Euler instead.
#pragma once

#include <functional>
#include <span>

#include "util/units.hpp"

namespace aqua::sim {

/// dy/dt = f(t, y) with y and the derivative as spans of equal length.
using OdeRhs =
    std::function<void(double t, std::span<const double> y, std::span<double> dydt)>;

/// One classic RK4 step of size dt, in place.
void rk4_step(const OdeRhs& f, double t, util::Seconds dt, std::span<double> y);

/// One forward-Euler step (for cheap, heavily-oversampled loops).
void euler_step(const OdeRhs& f, double t, util::Seconds dt, std::span<double> y);

/// First-order lag (one-pole) tracker: analytic step of
/// dy/dt = (target − y)/tau. Robust for any dt/tau ratio; the workhorse for
/// actuators, amplifier bandwidth and DAC settling.
class FirstOrderLag {
 public:
  FirstOrderLag(double initial, util::Seconds tau);

  double step(double target, util::Seconds dt);

  /// The per-step decay factor exp(−dt/τ) that step() applies for this dt
  /// (0 when τ ≤ 0, i.e. the lag tracks instantly). The channel's fused frame
  /// loop hoists it out of the per-tick loop, and it is memoised on dt, so a
  /// fixed-step channel pays the exp once rather than once per frame; the
  /// factor is the identical value either way.
  [[nodiscard]] double decay(util::Seconds dt);

  [[nodiscard]] double value() const { return y_; }
  void reset(double value) { y_ = value; }
  void set_tau(util::Seconds tau);

 private:
  double y_;
  double tau_;
  double memo_dt_;  // NaN: nothing memoised yet
  double memo_decay_ = 0.0;
};

}  // namespace aqua::sim
