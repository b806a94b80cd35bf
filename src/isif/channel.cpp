#include "isif/channel.hpp"

#include <stdexcept>

#include "isif/frame_loop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aqua::isif {

namespace {
// Channel-level telemetry: decimated samples produced and modulator-overload
// blocks observed. Counters only read state the datapath already computes, so
// enabling them cannot perturb the bitstream (DESIGN.md §8).
const obs::Counter kSamples{"isif.channel.samples"};
const obs::Counter kOverloadBlocks{"isif.channel.overload_blocks"};
}  // namespace

using util::Hertz;
using util::Kelvin;
using util::Seconds;
using util::Volts;

InputChannel::InputChannel(const ChannelConfig& config, util::Rng rng)
    : config_(config),
      amp_(config.amp, config.modulator_clock, rng.split()),
      lpf_(config.anti_alias_cutoff, config.anti_alias_poles),
      adc_(config.adc, rng.split()),
      cic_(config.cic_order, config.decimation) {
  if (config.modulator_clock.value() <= 0.0)
    throw std::invalid_argument("InputChannel: bad modulator clock");
  if (config.output_bits < 8 || config.output_bits > 24)
    throw std::invalid_argument("InputChannel: output bits out of range [8,24]");
}

ChannelSample InputChannel::make_sample(double normalised) {
  // Injected front-end offset drift, referred to the channel input. Guarded
  // so the healthy path runs zero extra FP operations (adding 0.0 would flip
  // the sign bit of a −0.0 sample and break bit-reproducibility).
  if (fault_.offset_volts != 0.0)
    normalised +=
        fault_.offset_volts * amp_.gain() / config_.adc.full_scale.value();
  // CIC output is the recovered signal normalised to ±1 of the ADC full
  // scale; quantise to the channel's output word.
  std::int32_t code = dsp::quantize_code(normalised, 1.0, config_.output_bits);
  if (fault_.stuck_high != 0 || fault_.stuck_low != 0) {
    // Stuck bits act on the offset-binary word the readout register holds.
    const std::uint32_t half = 1u << (config_.output_bits - 1);
    std::uint32_t raw =
        static_cast<std::uint32_t>(code + static_cast<std::int32_t>(half));
    raw |= fault_.stuck_high;
    raw &= ~fault_.stuck_low;
    raw &= (half << 1) - 1;
    code = static_cast<std::int32_t>(raw) - static_cast<std::int32_t>(half);
  }
  const double adc_input_volts =
      dsp::dequantize_code(code, config_.adc.full_scale.value(),
                           config_.output_bits);
  ChannelSample sample{code, adc_input_volts / amp_.gain(), overload_latch_};
  kSamples.add(1);
  if (overload_latch_) kOverloadBlocks.add(1);
  // Overload *episodes* (runs of overloaded frames) on the trace timeline;
  // the counter above already totals the individual blocks.
  if (overload_latch_ != overload_episode_) {
    if (overload_latch_)
      AQUA_TRACE_INSTANT("isif.channel.overload_begin");
    else
      AQUA_TRACE_INSTANT("isif.channel.overload_end");
    overload_episode_ = overload_latch_;
  }
  overload_latch_ = false;
  return sample;
}

std::optional<ChannelSample> InputChannel::tick(Volts differential_input,
                                                Kelvin ambient) {
  const Seconds dt = tick_period();
  const double amplified = amp_.step(differential_input, dt, ambient);
  const double filtered = lpf_.step(amplified, dt);
  const int bit = adc_.step(Volts{filtered});
  overload_latch_ = overload_latch_ || adc_.overloaded();

  const auto decimated = cic_.push(static_cast<double>(bit));
  if (!decimated) return std::nullopt;
  return make_sample(*decimated);
}

InputChannel::FrameState InputChannel::begin_frame(Kelvin ambient) {
  if (frame_phase() != 0)
    throw std::logic_error(
        "InputChannel: process_frame needs a frame-aligned channel "
        "(frame_phase() == 0); advance with tick() to the boundary first");
  const Seconds dt = tick_period();
  return FrameState{amp_.frame_state(dt, ambient), lpf_.frame_state(dt),
                    adc_.frame_state(), cic_.frame_state()};
}

ChannelSample InputChannel::commit_frame(const FrameState& k) {
  amp_.commit_frame(k.amp);
  lpf_.commit_frame(k.rc);
  adc_.commit_frame(k.adc);
  overload_latch_ = overload_latch_ || k.adc.any_overload;
  return make_sample(cic_.commit_frame(k.cic));
}

ChannelSample InputChannel::process_frame(
    std::span<const double> differential_volts, Kelvin ambient) {
  if (differential_volts.size() !=
      static_cast<std::size_t>(config_.decimation))
    throw std::logic_error("InputChannel: frame size must equal decimation");
  FrameState k = begin_frame(ambient);
  const double* volts = differential_volts.data();
  run_frame_lanes<1, PolarNoise>(&k, &volts, config_.decimation);
  return commit_frame(k);
}

Hertz InputChannel::output_rate() const {
  return Hertz{config_.modulator_clock.value() / config_.decimation};
}

Seconds InputChannel::tick_period() const {
  return Seconds{1.0 / config_.modulator_clock.value()};
}

Volts InputChannel::input_referred_lsb() const {
  return Volts{dsp::lsb_size(config_.adc.full_scale.value(),
                             config_.output_bits) /
               amp_.gain()};
}

void InputChannel::reset() {
  amp_.reset();
  lpf_.reset();
  adc_.reset();
  cic_.reset();
  overload_latch_ = false;
  overload_episode_ = false;
}

}  // namespace aqua::isif
