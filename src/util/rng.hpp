// rng.hpp — deterministic random number generation.
//
// Every stochastic element in the library (ΣΔ dither, amplifier noise, resistor
// tolerances, turbulence) draws from an explicitly seeded Rng so that every
// test, example and experiment is bit-reproducible. The generator is
// xoshiro256++ (Blackman & Vigna), small, fast and high quality; `split()`
// derives decorrelated child streams so each subsystem owns its own stream.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace aqua::util {

class Rng {
 public:
  /// Seeds the stream from a 64-bit seed via SplitMix64 state expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // The draw primitives are defined inline: they sit on the per-modulator-tick
  // hot path (three gaussians per channel tick), where an out-of-line call per
  // draw is measurable. Inlining changes no values — same algorithm, same
  // stream positions.

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal draw (polar Box-Muller with cached spare).
  double gaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double scale = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * scale;
    has_spare_ = true;
    return u * scale;
  }

  /// Normal draw with the given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t below(std::uint64_t n) {
    // Lemire-style rejection-free-enough bound; n is small in all our uses.
    return next_u64() % n;
  }

  /// Derives an independent child stream; advances this stream.
  Rng split() { return Rng{next_u64()}; }

  /// Read-only digest of the generator's exact position: state words plus the
  /// Box-Muller spare. Equal fingerprints ⇒ identical future draw sequences.
  /// The fleet scaling tests use this to prove that shard assignment never
  /// changes any sensor's stream consumption order.
  [[nodiscard]] std::uint64_t fingerprint() const {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the state
    const auto mix = [&h](std::uint64_t w) {
      h ^= w;
      h *= 0x100000001b3ull;
    };
    for (const std::uint64_t w : s_) mix(w);
    mix(has_spare_ ? std::bit_cast<std::uint64_t>(spare_) | 1ull : 0ull);
    return h;
  }

  /// The generator's complete position: xoshiro state words plus the cached
  /// Box-Muller spare. The cross-sensor SIMD layer (src/simd) gathers this
  /// into structure-of-arrays lanes before a batch frame and scatters the
  /// advanced position back afterwards; round-tripping through State is
  /// exact, so scalar execution can resume a stream the batch path advanced
  /// (and vice versa) without perturbing a single draw.
  struct State {
    std::array<std::uint64_t, 4> s{};
    double spare = 0.0;
    bool has_spare = false;
  };
  explicit Rng(const State& state) { set_state(state); }
  [[nodiscard]] State state() const { return State{s_, spare_, has_spare_}; }
  void set_state(const State& state) {
    s_ = state.s;
    spare_ = state.spare;
    has_spare_ = state.has_spare;
  }

  /// Counter-based stream derivation: the `stream_id`-th decorrelated stream
  /// of a root seed, without constructing or advancing any intermediate
  /// generator. Same (root_seed, stream_id) ⇒ same stream, regardless of
  /// construction order or thread — this is the determinism anchor of the
  /// fleet engine (every sensor owns stream k of the fleet's root seed).
  [[nodiscard]] static Rng stream(std::uint64_t root_seed,
                                  std::uint64_t stream_id);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace aqua::util
