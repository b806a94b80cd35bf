#include "simd/gauss.hpp"

#include <stdexcept>

#include "simd/gauss_lanes.hpp"
#include "simd/lanes.hpp"

namespace aqua::simd {

int active_lane_width() { return detail::kCompiledLaneWidth; }

namespace {

int resolve_width(int width) {
  if (width == 0) return detail::kCompiledLaneWidth;
  if (width != 1 && width != 2 && width != 4 && width != 8)
    throw std::invalid_argument("simd: lane width must be 0, 1, 2, 4 or 8");
  return width;
}

// Element-wise kernels are pure per lane, so a short tail can be processed at
// W = 1 without changing any value.
template <int W>
void vlog_groups(std::span<const double> x, std::span<double> out) {
  using L = Lanes<W>;
  std::size_t i = 0;
  for (; i + W <= x.size(); i += W) {
    typename L::vd v{};
    for (int w = 0; w < W; ++w) L::set(v, w, x[i + static_cast<std::size_t>(w)]);
    const typename L::vd r = detail::vlog<W>(v);
    for (int w = 0; w < W; ++w)
      out[i + static_cast<std::size_t>(w)] = L::get(r, w);
  }
  for (; i < x.size(); ++i) out[i] = detail::vlog<1>(x[i]);
}

template <int W>
void vsincos_groups(std::span<const double> u, std::span<double> s,
                    std::span<double> c) {
  using L = Lanes<W>;
  std::size_t i = 0;
  for (; i + W <= u.size(); i += W) {
    typename L::vd v{};
    for (int w = 0; w < W; ++w) L::set(v, w, u[i + static_cast<std::size_t>(w)]);
    typename L::vd sn, cs;
    detail::vsincos_2pi<W>(v, sn, cs);
    for (int w = 0; w < W; ++w) {
      s[i + static_cast<std::size_t>(w)] = L::get(sn, w);
      c[i + static_cast<std::size_t>(w)] = L::get(cs, w);
    }
  }
  for (; i < u.size(); ++i) detail::vsincos_2pi<1>(u[i], s[i], c[i]);
}

template <int W>
void draw_group(util::Rng* rngs, double* out) {
  util::Rng* streams[W];
  for (int w = 0; w < W; ++w) streams[w] = &rngs[w];
  auto lanes = detail::GaussLanes<W>::gather(streams);
  const typename Lanes<W>::vd v = lanes.draw();
  lanes.scatter(streams);
  for (int w = 0; w < W; ++w) out[w] = Lanes<W>::get(v, w);
}

}  // namespace

void vlog_lanes(std::span<const double> x, std::span<double> out, int width) {
  if (x.size() != out.size())
    throw std::invalid_argument("vlog_lanes: span size mismatch");
  switch (resolve_width(width)) {
    case 1: vlog_groups<1>(x, out); break;
    case 2: vlog_groups<2>(x, out); break;
    case 4: vlog_groups<4>(x, out); break;
    default: vlog_groups<8>(x, out); break;
  }
}

void vsincos_2pi_lanes(std::span<const double> u, std::span<double> sin_out,
                       std::span<double> cos_out, int width) {
  if (u.size() != sin_out.size() || u.size() != cos_out.size())
    throw std::invalid_argument("vsincos_2pi_lanes: span size mismatch");
  switch (resolve_width(width)) {
    case 1: vsincos_groups<1>(u, sin_out, cos_out); break;
    case 2: vsincos_groups<2>(u, sin_out, cos_out); break;
    case 4: vsincos_groups<4>(u, sin_out, cos_out); break;
    default: vsincos_groups<8>(u, sin_out, cos_out); break;
  }
}

GaussBatch::GaussBatch(std::span<const util::Rng::State> states, int width)
    : rngs_(states.begin(), states.end()), width_(resolve_width(width)) {}

void GaussBatch::draw(std::span<double> out) {
  if (out.size() != rngs_.size())
    throw std::invalid_argument("GaussBatch::draw: span size mismatch");
  const std::size_t n = rngs_.size();
  const std::size_t w = static_cast<std::size_t>(width_);
  std::size_t i = 0;
  switch (width_) {
    case 2:
      for (; i + w <= n; i += w) draw_group<2>(&rngs_[i], &out[i]);
      break;
    case 4:
      for (; i + w <= n; i += w) draw_group<4>(&rngs_[i], &out[i]);
      break;
    case 8:
      for (; i + w <= n; i += w) draw_group<8>(&rngs_[i], &out[i]);
      break;
    default:
      break;
  }
  for (; i < n; ++i) draw_group<1>(&rngs_[i], &out[i]);
}

void GaussBatch::scatter(std::span<util::Rng::State> out) const {
  if (out.size() != rngs_.size())
    throw std::invalid_argument("GaussBatch::scatter: span size mismatch");
  for (std::size_t i = 0; i < rngs_.size(); ++i) out[i] = rngs_[i].state();
}

}  // namespace aqua::simd
