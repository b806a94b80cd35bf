#include "sim/integrator.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace aqua::sim {

using util::Seconds;

void rk4_step(const OdeRhs& f, double t, Seconds dt, std::span<double> y) {
  const std::size_t n = y.size();
  const double h = dt.value();
  std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);

  f(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k1[i];
  f(t + 0.5 * h, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k2[i];
  f(t + 0.5 * h, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + h * k3[i];
  f(t + h, tmp, k4);
  for (std::size_t i = 0; i < n; ++i)
    y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

void euler_step(const OdeRhs& f, double t, Seconds dt, std::span<double> y) {
  std::vector<double> dydt(y.size());
  f(t, y, dydt);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += dt.value() * dydt[i];
}

FirstOrderLag::FirstOrderLag(double initial, Seconds tau)
    : y_(initial),
      tau_(tau.value()),
      memo_dt_(std::numeric_limits<double>::quiet_NaN()) {
  if (tau_ < 0.0) throw std::invalid_argument("FirstOrderLag: negative tau");
}

double FirstOrderLag::step(double target, Seconds dt) {
  if (tau_ <= 0.0) {
    y_ = target;
  } else {
    const double a = std::exp(-dt.value() / tau_);
    y_ = target + (y_ - target) * a;
  }
  return y_;
}

double FirstOrderLag::decay(Seconds dt) {
  if (dt.value() != memo_dt_) {
    memo_dt_ = dt.value();
    memo_decay_ = tau_ <= 0.0 ? 0.0 : std::exp(-dt.value() / tau_);
  }
  return memo_decay_;
}

void FirstOrderLag::set_tau(Seconds tau) {
  if (tau.value() < 0.0) throw std::invalid_argument("FirstOrderLag: negative tau");
  tau_ = tau.value();
  memo_dt_ = std::numeric_limits<double>::quiet_NaN();
}

}  // namespace aqua::sim
