// channel.hpp — one ISIF analog input channel (paper Fig. 4): readout stage
// programmed as an instrument amplifier, analog low-pass for anti-aliasing, a
// 16-bit ΣΔ ADC, and the digital decimation that recovers the word. The
// channel runs at the modulator clock; a decimated sample (signed code +
// engineering value) pops out every `decimation` ticks.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analog/amplifier.hpp"
#include "analog/rc_filter.hpp"
#include "analog/sigma_delta.hpp"
#include "dsp/cic.hpp"
#include "dsp/fixed_point.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::isif {

struct ChannelConfig {
  analog::InstrumentAmpSpec amp{};
  util::Hertz anti_alias_cutoff = util::hertz(20e3);
  int anti_alias_poles = 2;
  analog::SigmaDeltaSpec adc{};
  util::Hertz modulator_clock = util::hertz(256e3);
  int cic_order = 3;
  int decimation = 128;  ///< output rate = modulator_clock / decimation
  int output_bits = 16;  ///< the "16 bits Sigma Delta ADC" word width
};

/// One decimated conversion result.
struct ChannelSample {
  std::int32_t code;   ///< signed `output_bits`-wide code
  double value;        ///< code scaled back to volts at the channel input
  bool overload;       ///< modulator overloaded during the block
};

/// Hardware defect injected into the conversion result (src/fault): stuck
/// output bits (a cracked bond wire or latched flip-flop in the decimator
/// readout) and/or an input-referred offset drift (front-end bias shift from
/// moisture or temperature). Masks act on the offset-binary output word.
/// Defaults are identity; while identity the sample path executes no extra
/// floating-point operation, so a compiled-in-but-inactive fault cannot
/// perturb the bitstream.
struct ChannelFault {
  std::uint32_t stuck_high = 0;  ///< bits forced to 1
  std::uint32_t stuck_low = 0;   ///< bits forced to 0
  double offset_volts = 0.0;     ///< input-referred offset
  [[nodiscard]] bool any() const {
    return stuck_high != 0 || stuck_low != 0 || offset_volts != 0.0;
  }
};

class InputChannel {
 public:
  InputChannel(const ChannelConfig& config, util::Rng rng);

  /// One modulator-clock tick with the given differential input at the pins.
  /// Returns a sample every `decimation` ticks.
  std::optional<ChannelSample> tick(util::Volts differential_input,
                                    util::Kelvin ambient = util::celsius(25.0));

  /// Advances one whole decimation frame — `decimation` ticks with the given
  /// per-tick differential inputs (volts) — and returns its sample,
  /// bit-identical to `decimation` tick() calls: the W = 1 instance of the
  /// channel's fused frame loop (isif/frame_loop.hpp, DESIGN.md §9). Needs
  /// inputs.size() == decimation and frame_phase() == 0 (throws
  /// std::logic_error otherwise). No allocation.
  ChannelSample process_frame(std::span<const double> differential_volts,
                              util::Kelvin ambient = util::celsius(25.0));

  /// Modulator ticks since the last frame boundary (0 = frame-aligned, so
  /// process_frame() may be called): the CIC's decimation phase.
  [[nodiscard]] int frame_phase() const { return cic_.phase(); }

  /// Everything one frame reads and advances, as plain data: each stage's
  /// streams, per-frame constants and live state. The fused frame loop
  /// advances W of these at once; begin_frame() and commit_frame() only copy.
  struct FrameState {
    analog::InstrumentAmp::FrameState amp;
    analog::RcLowpass::FrameState rc;
    analog::SigmaDeltaModulator::FrameState adc;
    dsp::CicDecimator::FrameState cic;
  };
  /// Requires frame alignment (frame_phase() == 0) — throws std::logic_error
  /// otherwise, exactly like process_frame.
  [[nodiscard]] FrameState begin_frame(
      util::Kelvin ambient = util::celsius(25.0));
  /// Writes the advanced state back and produces the frame's sample (CIC
  /// comb, overload latch, fault handling, quantisation, telemetry) — the
  /// exact tail of process_frame.
  ChannelSample commit_frame(const FrameState& k);

  void set_gain(double gain) { amp_.set_gain(gain); }
  [[nodiscard]] double gain() const { return amp_.gain(); }

  /// Installs (or, with a default-constructed fault, removes) a hardware
  /// defect on the conversion result. A physical defect is not cleared by
  /// reset() — a chip reset does not re-solder a bond wire; only the injector
  /// that modelled the defect removes it.
  void inject_fault(const ChannelFault& fault) { fault_ = fault; }
  void clear_fault() { fault_ = ChannelFault{}; }
  [[nodiscard]] const ChannelFault& injected_fault() const { return fault_; }

  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  [[nodiscard]] util::Hertz output_rate() const;
  [[nodiscard]] util::Seconds tick_period() const;
  /// Smallest input-referred step the channel can represent (1 output LSB).
  [[nodiscard]] util::Volts input_referred_lsb() const;

  void reset();

  /// Checkpoint support: every streaming stage plus the injected fault (a
  /// physical defect persists through reset, so it must persist through a
  /// crash too) and the frame/overload bookkeeping.
  void save_state(state::Writer& w) const {
    amp_.save_state(w);
    lpf_.save_state(w);
    adc_.save_state(w);
    cic_.save_state(w);
    w.u32(fault_.stuck_high);
    w.u32(fault_.stuck_low);
    w.f64(fault_.offset_volts);
    w.boolean(overload_latch_);
    w.boolean(overload_episode_);
    w.i32(frame_phase());
  }
  void load_state(state::Reader& r) {
    amp_.load_state(r);
    lpf_.load_state(r);
    adc_.load_state(r);
    cic_.load_state(r);
    fault_.stuck_high = r.u32();
    fault_.stuck_low = r.u32();
    fault_.offset_volts = r.f64();
    overload_latch_ = r.boolean();
    overload_episode_ = r.boolean();
    if (r.i32() != frame_phase())
      throw state::Error("InputChannel: frame phase disagrees with the CIC");
  }

 private:
  ChannelSample make_sample(double normalised);

  ChannelConfig config_;
  analog::InstrumentAmp amp_;
  analog::RcLowpass lpf_;
  analog::SigmaDeltaModulator adc_;
  dsp::CicDecimator cic_;
  ChannelFault fault_{};
  bool overload_latch_ = false;
  bool overload_episode_ = false;  // edge detector for trace instants only
};

}  // namespace aqua::isif
