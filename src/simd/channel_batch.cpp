#include "simd/channel_batch.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "isif/frame_loop.hpp"
#include "simd/gauss_lanes.hpp"

namespace aqua::simd {

namespace {

using isif::InputChannel;

/// The W channels' frame states, each built in place by its begin_frame
/// (the states hold util::Rng streams, which have no cheap default).
template <std::size_t... I>
std::array<InputChannel::FrameState, sizeof...(I)> begin_frames(
    const ChannelFrameInput* in, std::index_sequence<I...>) {
  return {in[I].channel->begin_frame(in[I].ambient)...};
}

/// One lane group of W channels through one decimation frame.
template <int W>
void process_group(const ChannelFrameInput* in, isif::ChannelSample* out) {
  auto k = begin_frames(in, std::make_index_sequence<W>{});
  const double* volts[W]{};
  const int decimation = in[0].channel->config().decimation;
  for (int w = 0; w < W; ++w) {
    if (k[w].rc.poles != k[0].rc.poles || k[w].cic.order != k[0].cic.order ||
        in[w].channel->config().decimation != decimation)
      throw std::invalid_argument(
          "ChannelBatch: channels in a batch must share decimation, RC pole "
          "count and CIC order");
    if (in[w].differential_volts.size() != static_cast<std::size_t>(decimation))
      throw std::logic_error("ChannelBatch: frame size must equal decimation");
    volts[w] = in[w].differential_volts.data();
  }
  isif::run_frame_lanes<W, detail::GaussLanes<W>>(k.data(), volts, decimation);
  for (int w = 0; w < W; ++w) out[w] = in[w].channel->commit_frame(k[w]);
}

}  // namespace

void ChannelBatch::process_frames(std::span<const ChannelFrameInput> in,
                                  std::span<isif::ChannelSample> out,
                                  int lane_width) {
  if (in.size() != out.size())
    throw std::invalid_argument("ChannelBatch: in/out size mismatch");
  if (in.empty()) return;
  int width = lane_width == 0 ? detail::kCompiledLaneWidth : lane_width;
  if (width != 1 && width != 2 && width != 4 && width != 8)
    throw std::invalid_argument("ChannelBatch: lane width must be 0, 1, 2, 4 or 8");
  const std::size_t n = in.size();
  const std::size_t w = static_cast<std::size_t>(width);
  std::size_t i = 0;
  // Full lane groups at the configured width, remainder one channel at a
  // time (every lane is a pure function of its own channel's state, so any
  // chunking produces identical per-channel results).
  switch (width) {
    case 2:
      for (; i + w <= n; i += w) process_group<2>(&in[i], &out[i]);
      break;
    case 4:
      for (; i + w <= n; i += w) process_group<4>(&in[i], &out[i]);
      break;
    case 8:
      for (; i + w <= n; i += w) process_group<8>(&in[i], &out[i]);
      break;
    default:
      break;
  }
  for (; i < n; ++i) process_group<1>(&in[i], &out[i]);
}

}  // namespace aqua::simd
