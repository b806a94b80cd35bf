#include "dsp/cic.hpp"

#include <cmath>
#include <stdexcept>

namespace aqua::dsp {

CicDecimator::CicDecimator(int order, int decimation, int differential_delay)
    : order_(order), decimation_(decimation), delay_(differential_delay) {
  if (order < 1 || order > 8)
    throw std::invalid_argument("CicDecimator: order out of range [1,8]");
  if (decimation < 1)
    throw std::invalid_argument("CicDecimator: decimation must be >= 1");
  if (differential_delay < 1 || differential_delay > 2)
    throw std::invalid_argument("CicDecimator: differential delay must be 1 or 2");
  // Word-growth check: output magnitude ≈ (R·M)^N · 2^31 must fit int64.
  if (std::pow(static_cast<double>(decimation) * differential_delay, order) >
      kInputScale)
    throw std::invalid_argument(
        "CicDecimator: (R*M)^N exceeds the integer datapath headroom (2^31)");
  output_scale_ = raw_gain() * kInputScale;
  integrators_.assign(static_cast<std::size_t>(order), 0);
  comb_delays_.assign(
      static_cast<std::size_t>(order),
      std::vector<std::uint64_t>(static_cast<std::size_t>(delay_), 0));
}

std::optional<double> CicDecimator::push(double x) {
  // Quantise the input to Q31 (the hardware's input word); all further
  // arithmetic is exact modulo 2^64.
  const auto sample = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llround(x * kInputScale)));

  // Integrator cascade at the input rate (wrap-around addition).
  std::uint64_t v = sample;
  for (std::uint64_t& acc : integrators_) {
    acc += v;
    v = acc;
  }
  if (++phase_ < decimation_) return std::nullopt;
  phase_ = 0;
  return comb();
}

double CicDecimator::comb() {
  // Comb cascade at the output rate.
  std::uint64_t y = integrators_.back();
  for (auto& hist : comb_delays_) {
    const std::uint64_t delayed = hist.front();
    for (std::size_t i = 0; i + 1 < hist.size(); ++i) hist[i] = hist[i + 1];
    hist.back() = y;
    y -= delayed;  // wrap-around subtraction: exact difference
  }
  return static_cast<double>(static_cast<std::int64_t>(y)) / output_scale_;
}

CicDecimator::FrameState CicDecimator::frame_state() const {
  FrameState k{};
  for (std::size_t j = 0; j < integrators_.size(); ++j)
    k.acc[j] = integrators_[j];
  k.order = order_;
  return k;
}

double CicDecimator::commit_frame(const FrameState& k) {
  for (std::size_t j = 0; j < integrators_.size(); ++j)
    integrators_[j] = k.acc[j];
  return comb();
}

void CicDecimator::reset() {
  phase_ = 0;
  for (std::uint64_t& acc : integrators_) acc = 0;
  for (auto& hist : comb_delays_)
    for (std::uint64_t& h : hist) h = 0;
}

double CicDecimator::raw_gain() const {
  return std::pow(static_cast<double>(decimation_) * delay_, order_);
}

}  // namespace aqua::dsp
