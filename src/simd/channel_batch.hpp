// channel_batch.hpp — cross-sensor SIMD execution of the ISIF channel frame
// (DESIGN.md §13): the channel's one fused frame loop (isif/frame_loop.hpp)
// steps W channels' frame states per instruction, between each channel's
// begin_frame and commit_frame, so scalar execution can resume any channel
// afterwards. Every lane is a pure function of its own channel's state, so
// the batch checksum reproduces at W = 1/2/4/8 and any thread count. The
// noise comes from the branch-free Box–Muller generator, not the scalar polar
// transform, so batch output intentionally differs from the scalar reference
// (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <span>

#include "isif/channel.hpp"
#include "util/units.hpp"

namespace aqua::simd {

/// One channel's share of a batch frame.
struct ChannelFrameInput {
  isif::InputChannel* channel = nullptr;
  /// Per-tick differential inputs, size == the channel's decimation.
  std::span<const double> differential_volts{};
  util::Kelvin ambient = util::celsius(25.0);
};

class ChannelBatch {
 public:
  /// Advances one decimation frame for every channel in `in`, writing the
  /// decimated samples to `out` (same order; sizes must match). Channels are
  /// processed in lane groups of `lane_width` (0 = compiled width) with the
  /// remainder at W = 1 — identical results at any chunking. All channels
  /// must be frame-aligned and share the same structural configuration
  /// (decimation, RC pole count, CIC order); throws std::logic_error /
  /// std::invalid_argument otherwise.
  static void process_frames(std::span<const ChannelFrameInput> in,
                             std::span<isif::ChannelSample> out,
                             int lane_width = 0);
};

}  // namespace aqua::simd
