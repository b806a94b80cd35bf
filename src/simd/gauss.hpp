// gauss.hpp — public (scalar-typed) face of the lane-parallel Gaussian
// generator and its math kernels. The fast path lives in ChannelBatch, which
// keeps lanes register-resident across a whole frame; this API exists for the
// accuracy / lane-invariance tests and for callers that want batched draws
// over explicit util::Rng::State streams without touching vector types.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace aqua::simd {

/// Test hooks: the vector ln / sin-cos-of-turns kernels evaluated lane-wise
/// at `width` (0 = the compiled width). x must be in (0, 1] for vlog_lanes,
/// u in [0, 1) for vsincos_2pi_lanes; spans must be equally sized.
void vlog_lanes(std::span<const double> x, std::span<double> out,
                int width = 0);
void vsincos_2pi_lanes(std::span<const double> u, std::span<double> sin_out,
                       std::span<double> cos_out, int width = 0);

/// N parallel standard-normal streams in lane groups of `width`. Each
/// stream's draw sequence is a pure function of its own initial Rng::State —
/// independent of width, grouping or the order streams were packed — so any
/// two GaussBatch configurations over the same states produce identical
/// per-stream values (the property tests/simd/test_gauss.cpp pins down).
/// Spares already cached in a gathered state (e.g. by scalar polar draws) are
/// consumed first; scatter() hands the advanced streams back for scalar
/// execution to resume exactly where the batch stopped.
class GaussBatch {
 public:
  /// width: 1, 2, 4, 8, or 0 for the compiled width (active_lane_width()).
  explicit GaussBatch(std::span<const util::Rng::State> states, int width = 0);

  /// One standard normal per stream; out.size() must equal the stream count.
  void draw(std::span<double> out);

  /// Copies the advanced stream states out (size must match).
  void scatter(std::span<util::Rng::State> out) const;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] std::size_t size() const { return rngs_.size(); }

 private:
  std::vector<util::Rng> rngs_;
  int width_;
};

}  // namespace aqua::simd
