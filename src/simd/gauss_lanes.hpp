// gauss_lanes.hpp — internal (simd/*.cpp only) lane-parallel math kernels:
// vector log, vector sin/cos-of-turns and the W-lane Gaussian generator the
// batch channel path draws its noise from. Header-only templates over
// Lanes<W>; keep this out of public headers so vector types never cross a TU
// boundary (vector ABI / -Wpsabi hygiene).
//
// Numerics contract (DESIGN.md §13): every operation is element-wise IEEE-754
// double +,−,×,÷, sqrt or exact integer/bit manipulation — no libm, no FMA
// (these TUs build with -ffp-contract=off) — so each lane's result depends
// only on that lane's inputs and is identical at every lane width and on
// every ISA. Accuracy (verified by tests/simd/test_gauss.cpp): vlog ≤ 2.0 ulp
// of std::log on (2⁻⁵³, 1]; vsincos_2pi ≤ 2e-16 absolute of
// sin/cos(2πu) on [0, 1).
#pragma once

#include <cstdint>

#include "simd/lanes.hpp"
#include "util/rng.hpp"

namespace aqua::simd::detail {

/// Natural log for x ∈ (0, 1] (the Box-Muller radius argument 1 − u). The
/// classic atanh-series kernel: decompose x = m·2^e with the mantissa break
/// at √0.5 so m ∈ [√0.5, √2), then log m = 2·atanh(z), z = (m−1)/(m+1),
/// |z| ≤ 0.1716, via its odd series through z¹⁹; e·ln2 is added in split
/// high/low parts. Pure bit-twiddling exponent extraction — branch-free.
template <int W>
inline typename Lanes<W>::vd vlog(typename Lanes<W>::vd x) {
  using L = Lanes<W>;
  using vd = typename L::vd;
  using vu = typename L::vu;
  using vi = typename L::vi;
  const vu bits = L::bits(x);
  // Offset so the exponent field splits at √0.5 (musl-style reduction).
  const vu tmp = bits - L::splat_u(0x3fe6a09e667f3bcdull);
  const vi e = (vi)tmp >> 52;  // arithmetic shift: signed unbiased exponent
  const vu mbits = bits - (tmp & L::splat_u(0xfffull << 52));
  const vd m = L::from_bits(mbits);
  const vd ef = L::to_double(e);
  const vd z = (m - 1.0) / (m + 1.0);
  const vd z2 = z * z;
  vd p = L::splat(2.0 / 19.0);
  p = p * z2 + 2.0 / 17.0;
  p = p * z2 + 2.0 / 15.0;
  p = p * z2 + 2.0 / 13.0;
  p = p * z2 + 2.0 / 11.0;
  p = p * z2 + 2.0 / 9.0;
  p = p * z2 + 2.0 / 7.0;
  p = p * z2 + 2.0 / 5.0;
  p = p * z2 + 2.0 / 3.0;
  p = p * z2 + 2.0;
  const vd ln2_hi = L::splat(0x1.62e42fee00000p-1);
  const vd ln2_lo = L::splat(0x1.a39ef35793c76p-33);
  return ef * ln2_lo + z * p + ef * ln2_hi;
}

/// sin(2πu) and cos(2πu) for u ∈ [0, 1), computed in turns: quadrant index
/// k = round(4u) via the 2⁵²+2⁵¹ magic-number round-to-nearest, residual
/// r = u − k/4 ∈ [−⅛, ⅛] turns, θ = 2πr ∈ [−π/4, π/4], Taylor series (sin
/// through 1/15!, cos through 1/14! — term ratio ≤ (π/4)² ≈ 0.62 of machine
/// epsilon at the tail), then the k mod 4 swap/negate fixup with sign-mask
/// XORs. Branch-free.
template <int W>
inline void vsincos_2pi(typename Lanes<W>::vd u, typename Lanes<W>::vd& s_out,
                        typename Lanes<W>::vd& c_out) {
  using L = Lanes<W>;
  using vd = typename L::vd;
  using vu = typename L::vu;
  using vi = typename L::vi;
  const vd magic = L::splat(0x1.8p52);
  const vd kf = (4.0 * u + magic) - magic;
  const vi k = L::to_int(kf);
  const vd r = u - kf * 0.25;  // exact: kf/4 is representable, |r| ≤ u's ulp scale
  const vd t = r * 6.283185307179586476925286766559;
  const vd t2 = t * t;
  vd p = L::splat(-1.0 / 1307674368000.0);  // −1/15!
  p = p * t2 + 1.0 / 6227020800.0;          // +1/13!
  p = p * t2 - 1.0 / 39916800.0;            // −1/11!
  p = p * t2 + 1.0 / 362880.0;              // +1/9!
  p = p * t2 - 1.0 / 5040.0;                // −1/7!
  p = p * t2 + 1.0 / 120.0;                 // +1/5!
  p = p * t2 - 1.0 / 6.0;                   // −1/3!
  const vd sn = t + t * t2 * p;
  vd q = L::splat(1.0 / 87178291200.0);     // +1/14!
  q = q * t2 - 1.0 / 479001600.0;           // −1/12!
  q = q * t2 + 1.0 / 3628800.0;             // +1/10!
  q = q * t2 - 1.0 / 40320.0;               // −1/8!
  q = q * t2 + 1.0 / 720.0;                 // +1/6!
  q = q * t2 - 1.0 / 24.0;                  // −1/4!
  q = q * t2 + 0.5;                         // +1/2!
  const vd cs = 1.0 - t2 * q;
  // Quadrant fixup. k mod 4: 0 → (s, c); 1 → (c, −s); 2 → (−s, −c);
  // 3 → (−c, s). Swap on odd k; sin negated for k ∈ {2, 3}, cos for {1, 2}.
  const vu odd = L::nonzero(k & 1);
  const vd s_sw = L::select(odd, cs, sn);
  const vd c_sw = L::select(odd, sn, cs);
  const vu sign = L::splat_u(0x8000000000000000ull);
  const vu neg_s = L::nonzero(k & 2) & sign;
  const vu neg_c = L::nonzero((k + 1) & 2) & sign;
  s_out = L::from_bits(L::bits(s_sw) ^ neg_s);
  c_out = L::from_bits(L::bits(c_sw) ^ neg_c);
}

/// W parallel standard-normal streams, one xoshiro256++ generator per lane,
/// gathered from / scattered back to W util::Rng generators (an exact
/// round-trip of each one's State) — the channel frame loop's noise policy
/// (isif/frame_loop.hpp). Uses the
/// branch-free Box-Muller form — r = √(−2·ln(1−u₁)), z₀ = r·cos(2πu₂),
/// z₁ = r·sin(2πu₂) — with z₁ cached as the lane's spare, consuming exactly
/// two raw u64 draws per lane per pair. Lanes holding a spare (including a
/// polar spare inherited from scalar execution) return it without advancing
/// their stream, exactly like the scalar generator's cache; a lane's draw
/// sequence is therefore a pure function of that lane's own initial state —
/// the lane-count-invariance anchor. Note the *values* differ from the scalar
/// rejection-sampling polar transform: the batch path owns its own committed
/// checksum instead of bit-matching the legacy scalar one (DESIGN.md §13).
template <int W>
struct GaussLanes {
  using L = Lanes<W>;
  using vd = typename L::vd;
  using vu = typename L::vu;

  vu s0, s1, s2, s3;
  vd spare;
  vu has_spare;  // all-ones / all-zeros per lane

  static GaussLanes gather(util::Rng* const* rngs) {
    GaussLanes g{};
    for (int w = 0; w < W; ++w) {
      const util::Rng::State st = rngs[w]->state();
      L::set(g.s0, w, st.s[0]);
      L::set(g.s1, w, st.s[1]);
      L::set(g.s2, w, st.s[2]);
      L::set(g.s3, w, st.s[3]);
      L::set(g.spare, w, st.spare);
      L::set(g.has_spare, w, st.has_spare ? ~0ull : 0ull);
    }
    return g;
  }

  void scatter(util::Rng* const* rngs) const {
    for (int w = 0; w < W; ++w)
      rngs[w]->set_state(
          {{L::get(s0, w), L::get(s1, w), L::get(s2, w), L::get(s3, w)},
           L::get(spare, w),
           L::get(has_spare, w) != 0});
  }

  /// xoshiro256++ next(), all lanes — the exact scalar recurrence per lane.
  vu next() {
    const vu result = L::rotl(s0 + s3, 23) + s0;
    const vu t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = L::rotl(s3, 45);
    return result;
  }

  /// One standard normal per lane.
  vd draw() {
    if (L::all_lanes(has_spare)) {  // fast path: every lane holds a spare
      has_spare = vu{};
      return spare;
    }
    // Generate a fresh pair on a copy; lanes that already hold a spare keep
    // their stream position and return the spare instead.
    GaussLanes c = *this;
    const vu b1 = c.next();
    const vu b2 = c.next();
    const vd u1 = L::to_double(b1 >> 11) * 0x1.0p-53;
    const vd u2 = L::to_double(b2 >> 11) * 0x1.0p-53;
    // 1 − u₁ ∈ (2⁻⁵³, 1]: log finite, r = 0 only when u₁ = 0 exactly.
    const vd r = L::vsqrt(-2.0 * vlog<W>(1.0 - u1));
    vd sn, cs;
    vsincos_2pi<W>(u2, sn, cs);
    const vd out = L::select(has_spare, spare, r * cs);
    spare = L::select(has_spare, spare, r * sn);
    s0 = L::select_u(has_spare, s0, c.s0);
    s1 = L::select_u(has_spare, s1, c.s1);
    s2 = L::select_u(has_spare, s2, c.s2);
    s3 = L::select_u(has_spare, s3, c.s3);
    has_spare = ~has_spare;
    return out;
  }
};

/// The width this translation unit's SIMD objects prefer, resolved from the
/// compile flags the aqua_simd target was built with.
#if defined(AQUA_FORCE_SCALAR_LANES)
inline constexpr int kCompiledLaneWidth = 1;
#elif defined(__AVX512F__)
inline constexpr int kCompiledLaneWidth = 8;
#elif defined(__AVX2__)
inline constexpr int kCompiledLaneWidth = 4;
#elif defined(__SSE2__) || defined(__ARM_NEON) || defined(__aarch64__)
inline constexpr int kCompiledLaneWidth = 2;
#else
inline constexpr int kCompiledLaneWidth = 1;
#endif

}  // namespace aqua::simd::detail
