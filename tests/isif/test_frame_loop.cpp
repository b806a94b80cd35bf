// The fused frame loop against its oracle: InputChannel::process_frame (the
// W = 1 instance of isif/frame_loop.hpp) must leave the channel exactly where
// `decimation` tick() calls leave it — same sample bits, same checkpoint
// bytes — after every frame. One property test sweeps the channel's
// structure and failure modes; the per-stage tests below aim one stage's
// behaviour at the loop each (full-noise amp, rail saturation, RC pole
// counts, ΣΔ overload latch and dither, each noise stream, CIC orders and the
// folded ±1 bit).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analog/amplifier.hpp"
#include "isif/channel.hpp"
#include "state/serial.hpp"
#include "util/rng.hpp"

namespace aqua::isif {
namespace {

using util::Kelvin;
using util::Rng;
using util::volts;

std::vector<std::uint8_t> state_bytes(const InputChannel& ch) {
  state::Writer w;
  ch.save_state(w);
  return w.take();
}

ChannelConfig quiet_config() {
  ChannelConfig c;
  c.amp.offset_sigma = volts(0.0);
  c.amp.noise_density = 0.0;
  c.amp.flicker_density_1hz = 0.0;
  c.adc.dither_lsb = 0.0;
  return c;
}

/// Two channels built alike: `frames` advances by process_frame, `ticks` by
/// the per-tick oracle.
struct FrameVsTicks {
  InputChannel frames;
  InputChannel ticks;
  FrameVsTicks(const ChannelConfig& cfg, std::uint64_t seed)
      : frames{cfg, Rng{seed}}, ticks{cfg, Rng{seed}} {}

  /// One frame on both; expects equal sample bits and checkpoint bytes and
  /// returns the frame path's sample.
  ChannelSample step(std::span<const double> volts_in,
                     Kelvin ambient = util::celsius(25.0)) {
    const ChannelSample got = frames.process_frame(volts_in, ambient);
    std::optional<ChannelSample> want;
    for (std::size_t i = 0; i < volts_in.size(); ++i) {
      const auto s = ticks.tick(volts(volts_in[i]), ambient);
      EXPECT_EQ(s.has_value(), i + 1 == volts_in.size()) << "tick " << i;
      if (s) want = s;
    }
    EXPECT_TRUE(want.has_value());
    if (want) {
      EXPECT_EQ(got.code, want->code);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
                std::bit_cast<std::uint64_t>(want->value));
      EXPECT_EQ(got.overload, want->overload);
    }
    EXPECT_EQ(state_bytes(frames), state_bytes(ticks));
    return got;
  }
};

std::vector<double> sine_frame(int decimation, int frame, double amplitude,
                                double omega) {
  std::vector<double> v(static_cast<std::size_t>(decimation));
  for (int i = 0; i < decimation; ++i)
    v[static_cast<std::size_t>(i)] =
        amplitude * std::sin(omega * (frame * decimation + i));
  return v;
}

TEST(InputChannel, ProcessFrameMatchesTickOracle) {
  for (const int poles : {1, 2, 4}) {
    for (const int order : {3, 4}) {
      for (const int decimation : {64, 128}) {
        for (const std::uint64_t seed : {7ull, 8ull}) {
          ChannelConfig cfg{};  // every noise source and the dither live
          cfg.anti_alias_poles = poles;
          cfg.cic_order = order;
          cfg.decimation = decimation;
          cfg.amp.gain = seed == 7 ? 16.0 : 128.0;
          FrameVsTicks pair{cfg, seed};
          for (int f = 0; f < 30; ++f) {
            SCOPED_TRACE("poles " + std::to_string(poles) + " order " +
                         std::to_string(order) + " decimation " +
                         std::to_string(decimation) + " seed " +
                         std::to_string(seed) + " frame " + std::to_string(f));
            std::vector<double> in = sine_frame(decimation, f, 4e-3, 0.003);
            // Overload bursts: a whole frame past the ΣΔ's stable range and
            // the amp's rail, then a frame overloaded mid-way only.
            if (f == 5) for (double& v : in) v += 1.5;
            if (f == 6) in[static_cast<std::size_t>(decimation / 2)] = -2.0;
            if (f == 12) {
              ChannelFault fault;
              fault.offset_volts = 3e-3;
              fault.stuck_high = 0x0100;
              fault.stuck_low = 0x0003;
              pair.frames.inject_fault(fault);
              pair.ticks.inject_fault(fault);
            }
            if (f == 20) {
              pair.frames.clear_fault();
              pair.ticks.clear_fault();
            }
            if (f == 16) {
              pair.frames.reset();
              pair.ticks.reset();
            }
            (void)pair.step(in, util::celsius(25.0 + 15.0 * std::sin(0.4 * f)));
          }
        }
      }
    }
  }
}

// --- per-stage coverage -----------------------------------------------------

/// The amp's checkpoint bytes after stepping a standalone InstrumentAmp — the
/// channel's first stage, built from the same first split of the seed —
/// through `in` with its own step(). The channel's checkpoint starts with
/// exactly these bytes.
std::vector<std::uint8_t> amp_oracle_bytes(const ChannelConfig& cfg,
                                           std::uint64_t seed,
                                           std::span<const double> in,
                                           bool* saturated = nullptr) {
  Rng rng{seed};
  analog::InstrumentAmp amp{cfg.amp, cfg.modulator_clock, rng.split()};
  const util::Seconds dt{1.0 / cfg.modulator_clock.value()};
  for (const double v : in) (void)amp.step(volts(v), dt);
  if (saturated != nullptr) *saturated = amp.saturated();
  state::Writer w;
  amp.save_state(w);
  return w.take();
}

bool starts_with(const std::vector<std::uint8_t>& bytes,
                 const std::vector<std::uint8_t>& prefix) {
  return bytes.size() >= prefix.size() &&
         std::equal(prefix.begin(), prefix.end(), bytes.begin());
}

TEST(InstrumentAmp, ProcessBlockBitIdenticalToStep) {
  // Full-noise amp: the frame loop must consume the white and flicker streams
  // in exactly step()'s interleaving, and leave the amp where step() does.
  const ChannelConfig cfg{};
  FrameVsTicks pair{cfg, 21};
  std::vector<double> all;
  for (int f = 0; f < 3; ++f) {
    const auto in = sine_frame(cfg.decimation, f, 5e-3, 0.013);
    all.insert(all.end(), in.begin(), in.end());
    (void)pair.step(in);
  }
  EXPECT_TRUE(starts_with(state_bytes(pair.frames),
                          amp_oracle_bytes(cfg, 21, all)));
}

TEST(InstrumentAmp, BlockKernelCarriesSaturationState) {
  // 1 V · gain 16 slams the 1.65 V rail: the frame must hand the amp's
  // saturation flag back exactly as step() leaves it.
  const ChannelConfig cfg = quiet_config();
  FrameVsTicks pair{cfg, 1};
  const std::vector<double> in(static_cast<std::size_t>(cfg.decimation), 1.0);
  EXPECT_TRUE(pair.step(in).overload);
  bool saturated = false;
  const auto amp = amp_oracle_bytes(cfg, 1, in, &saturated);
  EXPECT_TRUE(saturated);
  EXPECT_TRUE(starts_with(state_bytes(pair.frames), amp));
}

TEST(RcLowpass, ProcessBlockBitIdenticalToStep) {
  ChannelConfig cfg = quiet_config();
  cfg.anti_alias_poles = 2;
  FrameVsTicks pair{cfg, 3};
  for (int f = 0; f < 3; ++f) {
    std::vector<double> in(static_cast<std::size_t>(cfg.decimation));
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double t = static_cast<double>(f * cfg.decimation) +
                       static_cast<double>(i);
      in[i] = 2e-3 * (std::sin(0.05 * t) + 0.3 * std::sin(0.7 * t));
    }
    (void)pair.step(in);
  }
}

TEST(RcLowpass, BlockKernelBitIdenticalToStepAllPoleCounts) {
  for (int poles = 1; poles <= 4; ++poles) {
    SCOPED_TRACE("poles " + std::to_string(poles));
    ChannelConfig cfg = quiet_config();
    cfg.anti_alias_cutoff = util::hertz(5e3);
    cfg.anti_alias_poles = poles;
    FrameVsTicks pair{cfg, 4};
    for (int f = 0; f < 3; ++f)
      (void)pair.step(sine_frame(cfg.decimation, f, 3e-3, 0.11));
  }
}

TEST(SigmaDelta, ProcessBlockBitIdenticalToStep) {
  // Near the stable-range edge, so overload flags come and go inside frames.
  const ChannelConfig cfg{};
  FrameVsTicks pair{cfg, 31};
  const double edge = 0.93 * cfg.adc.full_scale.value() / cfg.amp.gain;
  for (int f = 0; f < 6; ++f)
    (void)pair.step(sine_frame(cfg.decimation, f, edge, 0.021));
}

TEST(SigmaDelta, BlockOverloadLatchVsLastSample) {
  // A frame whose middle tick overloads but whose last tick is fine latches
  // the overload into the sample, while the modulator's own flag (in the
  // checkpoint bytes) reports the last tick, exactly as per-tick stepping
  // leaves it. The next quiet frame reports no overload.
  const ChannelConfig cfg = quiet_config();
  FrameVsTicks pair{cfg, 32};
  std::vector<double> in(static_cast<std::size_t>(cfg.decimation), 6e-3);
  // ≈ 0.99 FS after gain 16, long enough to pass the anti-alias poles, and
  // over well before the frame's last tick.
  std::fill(in.begin() + 40, in.begin() + 80, 0.099);
  EXPECT_TRUE(pair.step(in).overload);
  std::fill(in.begin() + 40, in.begin() + 80, 6e-3);
  EXPECT_FALSE(pair.step(in).overload);
}

TEST(SigmaDelta, FillDitherBitIdenticalToStepDraws) {
  // Dither well above the quiet floor: every tick's dither draw shows up in
  // the bitstream, so the loop must draw exactly step()'s values in order.
  ChannelConfig cfg = quiet_config();
  cfg.adc.dither_lsb = 0.05;
  FrameVsTicks pair{cfg, 33};
  const std::vector<double> in(static_cast<std::size_t>(cfg.decimation),
                               0.2 * cfg.adc.full_scale.value() / cfg.amp.gain);
  for (int f = 0; f < 4; ++f) (void)pair.step(in);
}

TEST(WhiteNoise, FillBitIdenticalToSampleSequence) {
  ChannelConfig cfg = quiet_config();
  cfg.amp.noise_density = 50e-9;
  cfg.amp.gain = 128.0;
  FrameVsTicks pair{cfg, 11};
  const std::vector<double> in(static_cast<std::size_t>(cfg.decimation), 0.0);
  for (int f = 0; f < 4; ++f) (void)pair.step(in);
}

TEST(FlickerNoise, FillBitIdenticalToSampleSequence) {
  // Enough frames for the row counter to reach the chain's upper rows, so
  // the loop's suffix-partial cache is exercised at every depth.
  ChannelConfig cfg = quiet_config();
  cfg.amp.flicker_density_1hz = 1e-6;
  cfg.amp.gain = 128.0;
  FrameVsTicks pair{cfg, 12};
  const std::vector<double> in(static_cast<std::size_t>(cfg.decimation), 0.0);
  for (int f = 0; f < 12; ++f) (void)pair.step(in);
}

TEST(Cic, PushBlockBitIdenticalToPush) {
  for (const int order : {1, 2, 3, 4}) {
    for (const int decimation : {16, 64}) {
      SCOPED_TRACE("order " + std::to_string(order) + " decimation " +
                   std::to_string(decimation));
      ChannelConfig cfg = quiet_config();
      cfg.cic_order = order;
      cfg.decimation = decimation;
      FrameVsTicks pair{cfg, 5};
      for (int f = 0; f < 4; ++f)
        (void)pair.step(sine_frame(decimation, f, 30e-3, 0.2));
    }
  }
}

TEST(Cic, KernelPushBitBitIdenticalToPush) {
  // The loop folds llround(±1.0 · 2^31) into a constant pair; a frame whose
  // input swings across both rails feeds the integrators both words.
  ChannelConfig cfg = quiet_config();
  cfg.decimation = 32;
  FrameVsTicks pair{cfg, 6};
  const double half_fs = 0.5 * cfg.adc.full_scale.value() / cfg.amp.gain;
  std::vector<double> in(static_cast<std::size_t>(cfg.decimation));
  for (int f = 0; f < 6; ++f) {
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = ((i * 7 + static_cast<std::size_t>(f)) % 3 == 0) ? half_fs
                                                               : -half_fs;
    (void)pair.step(in);
  }
}

TEST(InputChannel, LoadRejectsFramePhaseDisagreeingWithCic) {
  // The frame phase is the CIC's decimation phase; the checkpoint stores it
  // twice. A checkpoint whose channel phase reads 0 while the CIC sits
  // mid-block would let process_frame emit a sample at a tick where tick()
  // would not, so loading it fails.
  const ChannelConfig cfg = quiet_config();
  InputChannel source{cfg, Rng{9}};
  for (int i = 0; i < 3; ++i) (void)source.tick(volts(1e-3));
  ASSERT_EQ(source.frame_phase(), 3);
  std::vector<std::uint8_t> bytes = state_bytes(source);
  {
    InputChannel loaded{cfg, Rng{9}};
    state::Reader r{bytes};
    loaded.load_state(r);
    EXPECT_EQ(loaded.frame_phase(), 3);
    EXPECT_EQ(state_bytes(loaded), bytes);
  }
  // The channel's frame phase is the last field written (an i32).
  std::fill(bytes.end() - 4, bytes.end(), std::uint8_t{0});
  InputChannel loaded{cfg, Rng{9}};
  state::Reader r{bytes};
  EXPECT_THROW(loaded.load_state(r), state::Error);
}

}  // namespace
}  // namespace aqua::isif
