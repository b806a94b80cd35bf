// frame_loop.hpp — the ISIF input channel's one fused decimation-frame loop
// (DESIGN.md §9, §13), written once over the lane width W and a noise policy.
// Two instances exist: InputChannel::process_frame runs <1, PolarNoise> in
// aqua_isif (the scalar reference, built for the baseline ISA so its
// checksum does not depend on the host), and simd::ChannelBatch runs
// <W, GaussLanes<W>> in aqua_simd.
//
// Per tick the loop applies exactly the FP operations, in exactly the order,
// of the stage step() functions behind InputChannel::tick() — white draw,
// flicker draw, amp, RC, dither draw, ΣΔ, CIC — on register-resident lanes
// with every per-frame constant hoisted. Sample-major order lets the stage
// recurrences (amp pole, RC poles, ΣΔ integrators) overlap like a systolic
// pipeline; the noise draws hide under their latency. Each lane is a pure
// function of its own channel's state, so results do not depend on W or on
// how channels are grouped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>

#include "isif/channel.hpp"
#include "util/lanes.hpp"
#include "util/rng.hpp"

namespace aqua::isif {

/// The scalar channel's noise policy: one lane drawing from the frame
/// state's own polar generator in place, so process_frame consumes each
/// stream exactly like tick() and copies no stream.
struct PolarNoise {
  util::Rng* rng;
  static PolarNoise gather(util::Rng* const* streams) {
    return PolarNoise{streams[0]};
  }
  void scatter(util::Rng* const*) const {}
  double draw() { return rng->gaussian(); }
};

/// Advances W channels' frame states (InputChannel::begin_frame) through one
/// decimation frame; volts[w] points at lane w's `decimation` per-tick
/// differential inputs. The channels must share RC pole count and CIC order
/// (the callers validate). `Noise` supplies W standard normals per draw from
/// the W frame states' util::Rng streams and leaves them advanced on
/// scatter().
template <int W, class Noise>
void run_frame_lanes(InputChannel::FrameState* k, const double* const* volts,
                     int decimation) {
  using L = util::Lanes<W>;
  using vd = typename L::vd;
  using vu = typename L::vu;
  const int poles = k[0].rc.poles;
  const int order = k[0].cic.order;

  // ---- gather: structure-of-arrays lanes from the W frame states ----------
  util::Rng *n_white[W], *n_flick[W], *n_dith[W];
  for (int w = 0; w < W; ++w) {
    n_white[w] = &k[w].amp.white.rng;
    n_flick[w] = &k[w].amp.flicker.rng;
    n_dith[w] = &k[w].adc.dither_rng;
  }
  Noise g_white = Noise::gather(n_white);
  Noise g_flick = Noise::gather(n_flick);
  Noise g_dith = Noise::gather(n_dith);

  // The RC and CIC arrays are copied whole (unused entries included): a copy
  // bounded by the runtime pole count or order compiles to memcpy calls,
  // which cost a short frame more than its ticks.
  constexpr int kPoles = std::tuple_size_v<decltype(k->rc.a)>;
  constexpr int kOrder = std::tuple_size_v<decltype(k->cic.acc)>;
  vd sigma_w{}, sigma_d{};
  vd a_off{}, a_drift{}, a_gain{}, a_hr{}, a_a{}, a_y{};
  vd r_a[kPoles] = {}, r_y[kPoles] = {};
  vd s_fs{}, s_leak{}, s_sat{}, s_s1{}, s_s2{}, s_fb{};
  vu s_lastov{}, s_anyov{};
  vu c_acc[kOrder] = {};
  for (int w = 0; w < W; ++w) {
    const InputChannel::FrameState& f = k[w];
    L::set(sigma_w, w, f.amp.white.sigma);
    L::set(sigma_d, w, f.adc.dither);
    L::set(a_off, w, f.amp.offset);
    L::set(a_drift, w, f.amp.drift);
    L::set(a_gain, w, f.amp.gain);
    L::set(a_hr, w, f.amp.half_rail);
    L::set(a_a, w, f.amp.a);
    L::set(a_y, w, f.amp.y);
    for (int p = 0; p < kPoles; ++p) {
      L::set(r_a[p], w, f.rc.a[static_cast<std::size_t>(p)]);
      L::set(r_y[p], w, f.rc.y[static_cast<std::size_t>(p)]);
    }
    L::set(s_fs, w, f.adc.fs);
    L::set(s_leak, w, f.adc.leak);
    L::set(s_sat, w, f.adc.sat);
    L::set(s_s1, w, f.adc.s1);
    L::set(s_s2, w, f.adc.s2);
    L::set(s_fb, w, f.adc.fb);
    for (int j = 0; j < kOrder; ++j)
      L::set(c_acc[j], w, f.cic.acc[static_cast<std::size_t>(j)]);
  }
  const vd zero = L::splat(0.0), one = L::splat(1.0);
  // Loop-invariant masks of the (a <= 0) pole-bypass conditionals.
  const vu amp_pole_off = L::le(a_a, zero);
  vu rc_pole_off[kPoles] = {};
  for (int p = 0; p < poles; ++p) rc_pole_off[p] = L::le(r_a[p], zero);
  // A ±1.0 modulator bit quantises to one of two exact Q31 words.
  constexpr auto kQ = static_cast<std::int64_t>(dsp::CicDecimator::kInputScale);
  const vu q_pos = L::splat_u(static_cast<std::uint64_t>(kQ));
  const vu q_neg = L::splat_u(static_cast<std::uint64_t>(-kQ));

  // ---- the fused frame loop, W channels per instruction -------------------
  for (int i = 0; i < decimation; ++i) {
    const vd white = zero + sigma_w * g_white.draw();
    const vd gf = g_flick.draw();
    vd flick{}, in{};
    for (int w = 0; w < W; ++w) {
      L::set(flick, w, k[w].amp.flicker.draw_with(L::get(gf, w)));
      L::set(in, w, volts[w][i]);
    }

    // InstrumentAmp::step: offset, drift and noise at the input, gain, the
    // bandwidth pole, rail clamp.
    const vd target = a_gain * (in + a_off + a_drift + white + flick);
    a_y = L::select(amp_pole_off, target, target + (a_y - target) * a_a);
    vd x = L::clamp(a_y, -a_hr, a_hr);

    // RcLowpass::step: the pole cascade.
    for (int p = 0; p < poles; ++p) {
      r_y[p] = L::select(rc_pole_off[p], x, x + (r_y[p] - x) * r_a[p]);
      x = r_y[p];
    }

    // SigmaDeltaModulator::step: normalise, overload flag, clamp, dither,
    // two clipped integrators, 1-bit quantiser (±1 by the sign of s2).
    const vd dither = zero + sigma_d * g_dith.draw();
    vd u = x / s_fs;
    s_lastov = L::gt(L::vabs(u), L::splat(0.9));
    s_anyov |= s_lastov;
    u = L::clamp(u, -one, one) + dither;
    s_s1 = L::clamp(s_leak * s_s1 + 0.5 * (u - s_fb), -s_sat, s_sat);
    s_s2 = L::clamp(s_leak * s_s2 + 0.5 * (s_s1 - s_fb), -s_sat, s_sat);
    const vu bit_up = L::ge(s_s2, zero);
    s_fb = L::unit(bit_up);

    // CicDecimator::push: the integrator cascade, exact u64 adds. The bit's
    // Q31 word comes from the quantiser's own mask (s_fb >= 0 iff s2 >= 0).
    vu v = L::select_u(bit_up, q_pos, q_neg);
    for (int j = 0; j < order; ++j) {
      c_acc[j] += v;
      v = c_acc[j];
    }
  }
  // The amp's saturation flag reflects the last tick only.
  const vu a_sat = L::gt(L::vabs(a_y), a_hr);

  // ---- scatter: lanes back into the frame states --------------------------
  g_white.scatter(n_white);
  g_flick.scatter(n_flick);
  g_dith.scatter(n_dith);
  for (int w = 0; w < W; ++w) {
    InputChannel::FrameState& f = k[w];
    f.amp.y = L::get(a_y, w);
    f.amp.saturated = L::get(a_sat, w) != 0;
    for (int p = 0; p < kPoles; ++p)
      f.rc.y[static_cast<std::size_t>(p)] = L::get(r_y[p], w);
    f.adc.s1 = L::get(s_s1, w);
    f.adc.s2 = L::get(s_s2, w);
    f.adc.fb = L::get(s_fb, w);
    f.adc.last_overload = L::get(s_lastov, w) != 0;
    f.adc.any_overload = L::get(s_anyov, w) != 0;
    for (int j = 0; j < kOrder; ++j)
      f.cic.acc[static_cast<std::size_t>(j)] = L::get(c_acc[j], w);
  }
}

}  // namespace aqua::isif
