// lanes.hpp — lane-width-generic SIMD pack abstraction (DESIGN.md §13). One
// interface over W ∈ {1, 2, 4, 8} doubles: at W ≥ 2 the packs are GNU vector
// extensions, which the compiler lowers to SSE2 (W = 2), AVX2 (W = 4),
// AVX-512 (W = 8), NEON (W = 2) or pairs of narrower registers, whatever the
// translation unit's -march allows; at W = 1 they are plain scalars (GCC
// keeps one-element vectors in memory and moves every value through an
// integer register, so that form costs the scalar channel ~30 %). Every
// operation is element-wise IEEE-754 double arithmetic or exact integer/bit
// manipulation, and the W = 1 forms are the scalar expressions the vector
// forms reproduce bit for bit — so a lane computes the identical bits at
// every width, the property the lane-count-invariant determinism checksum
// rests on. Header-only and below every model layer, so the ISIF channel's
// fused frame loop (isif/frame_loop.hpp) instantiates it at W = 1 without
// linking the SIMD objects. No FMA contraction may be introduced; keep
// vector-typed values out of cross-TU signatures so the vector ABI never
// leaks.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace aqua::util {

namespace detail {

// The vector_size argument must be a literal at class-template parse time
// (GCC defers dependent attribute arguments and falls back to the scalar base
// type otherwise), so the widths are enumerated as full specializations.
template <int W>
struct VecTypes;
template <>
struct VecTypes<2> {
  typedef double vd __attribute__((vector_size(16)));
  typedef std::uint64_t vu __attribute__((vector_size(16)));
  typedef std::int64_t vi __attribute__((vector_size(16)));
};
template <>
struct VecTypes<4> {
  typedef double vd __attribute__((vector_size(32)));
  typedef std::uint64_t vu __attribute__((vector_size(32)));
  typedef std::int64_t vi __attribute__((vector_size(32)));
};
template <>
struct VecTypes<8> {
  typedef double vd __attribute__((vector_size(64)));
  typedef std::uint64_t vu __attribute__((vector_size(64)));
  typedef std::int64_t vi __attribute__((vector_size(64)));
};

}  // namespace detail

/// W doubles (vd), W u64 masks/words (vu) and W i64 words (vi) per pack.
/// Comparisons yield masks whose lanes are all-ones or all-zeros.
template <int W>
struct Lanes {
  static_assert(W == 2 || W == 4 || W == 8,
                "lane width must be 1, 2, 4 or 8 doubles");
  static constexpr int kWidth = W;

  using vd = typename detail::VecTypes<W>::vd;
  using vu = typename detail::VecTypes<W>::vu;
  using vi = typename detail::VecTypes<W>::vi;

  /// Broadcast a scalar into every lane. An explicit per-lane store (not the
  /// `vd{} + x` idiom: 0.0 + (−0.0) is +0.0, which would lose the sign of a
  /// negative-zero broadcast); the compiler lowers it to a single broadcast.
  static vd splat(double x) {
    vd r{};
    for (int w = 0; w < W; ++w) r[w] = x;
    return r;
  }
  static vu splat_u(std::uint64_t x) {
    vu r{};
    for (int w = 0; w < W; ++w) r[w] = x;
    return r;
  }

  static double get(vd v, int w) { return v[w]; }
  static std::uint64_t get(vu v, int w) { return v[w]; }
  static void set(vd& v, int w, double x) { v[w] = x; }
  static void set(vu& v, int w, std::uint64_t x) { v[w] = x; }

  static vu lt(vd a, vd b) { return (vu)(a < b); }
  static vu le(vd a, vd b) { return (vu)(a <= b); }
  static vu gt(vd a, vd b) { return (vu)(a > b); }
  static vu ge(vd a, vd b) { return (vu)(a >= b); }
  static vu nonzero(vi x) { return (vu)(x != 0); }

  /// Bit reinterpretation and value conversion between the pack types.
  static vu bits(vd x) { return (vu)x; }
  static vd from_bits(vu x) { return (vd)x; }
  static vd to_double(vi x) { return __builtin_convertvector(x, vd); }
  static vd to_double(vu x) { return __builtin_convertvector(x, vd); }
  static vi to_int(vd x) { return __builtin_convertvector(x, vi); }

  /// Per-lane select: mask lanes are all-ones (pick a) or all-zeros (pick b).
  static vd select(vu mask, vd a, vd b) {
    return (vd)((mask & (vu)a) | (~mask & (vu)b));
  }
  static vu select_u(vu mask, vu a, vu b) { return (mask & a) | (~mask & b); }
  /// +1.0 where the mask is set, −1.0 elsewhere: the 1-bit quantiser.
  static vd unit(vu mask) { return select(mask, splat(1.0), splat(-1.0)); }

  /// |x| by clearing the sign bit — the bit-exact vector form of std::abs.
  static vd vabs(vd x) { return (vd)((vu)x & splat_u(0x7fffffffffffffffull)); }

  /// std::clamp(x, lo, hi) lane-wise with the same comparison order (and the
  /// same −0.0 pass-through).
  static vd clamp(vd x, vd lo, vd hi) {
    vd r = select(lt(x, lo), lo, x);
    return select(lt(hi, r), hi, r);
  }

  /// Element-wise sqrt; -fno-math-errno lets this lower to the vector sqrt
  /// instruction (IEEE-correctly-rounded at every width).
  static vd vsqrt(vd x) {
    vd r = x;
    for (int w = 0; w < W; ++w) r[w] = __builtin_sqrt(x[w]);
    return r;
  }

  static vu rotl(vu x, int k) { return (x << k) | (x >> (64 - k)); }

  static bool all_lanes(vu mask) {
    bool all = true;
    for (int w = 0; w < W; ++w) all = all && mask[w] != 0;
    return all;
  }
};

/// One lane: the scalar expressions each vector operation above reproduces
/// per lane (Lanes.SelectClampAbsMatchScalarBitForBit pins select, clamp and
/// abs against the mask forms).
template <>
struct Lanes<1> {
  static constexpr int kWidth = 1;

  using vd = double;
  using vu = std::uint64_t;
  using vi = std::int64_t;

  static vd splat(double x) { return x; }
  static vu splat_u(std::uint64_t x) { return x; }

  static double get(vd v, int) { return v; }
  static std::uint64_t get(vu v, int) { return v; }
  static void set(vd& v, int, double x) { v = x; }
  static void set(vu& v, int, std::uint64_t x) { v = x; }

  static vu mask(bool b) { return b ? ~0ull : 0ull; }
  static vu lt(vd a, vd b) { return mask(a < b); }
  static vu le(vd a, vd b) { return mask(a <= b); }
  static vu gt(vd a, vd b) { return mask(a > b); }
  static vu ge(vd a, vd b) { return mask(a >= b); }
  static vu nonzero(vi x) { return mask(x != 0); }

  static vu bits(vd x) { return std::bit_cast<vu>(x); }
  static vd from_bits(vu x) { return std::bit_cast<vd>(x); }
  static vd to_double(vi x) { return static_cast<vd>(x); }
  static vd to_double(vu x) { return static_cast<vd>(x); }
  static vi to_int(vd x) { return static_cast<vi>(x); }

  // select stays a ternary: the frame loop's double selects (pole bypass)
  // are loop-invariant, so the branch predicts or is unswitched. The
  // quantiser's decision is not: GCC threads a ternary `unit` and the CIC
  // word select_u on the same mask into one branch that mispredicts about
  // every other tick (~15 % of the W = 1 frame at -O2). Both are therefore
  // bit operations on a mask the empty asm hides from the optimiser.
  static vd select(vu mask, vd a, vd b) { return mask != 0 ? a : b; }
  static vu select_u(vu mask, vu a, vu b) {
    asm("" : "+r"(mask));
    return (mask & a) | (~mask & b);
  }
  static vd unit(vu mask) {
    asm("" : "+r"(mask));
    return from_bits(bits(-1.0) ^ (mask & 0x8000000000000000ull));
  }
  static vd vabs(vd x) { return std::abs(x); }
  static vd clamp(vd x, vd lo, vd hi) { return std::clamp(x, lo, hi); }
  static vd vsqrt(vd x) { return __builtin_sqrt(x); }
  static vu rotl(vu x, int k) { return std::rotl(x, k); }
  static bool all_lanes(vu mask) { return mask != 0; }
};

}  // namespace aqua::util
