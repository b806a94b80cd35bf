// noise.hpp — noise sources for the analog front-end models. White noise is
// specified as a density (V/√Hz) and scaled by the simulation bandwidth;
// flicker (1/f) noise is generated with the Voss-McCartney algorithm and
// scaled to a corner frequency, the way amplifier datasheets specify it.
#pragma once

#include <array>
#include <bit>
#include <cmath>

#include "state/rng_io.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace aqua::analog {

/// Gaussian white noise with a flat spectral density.
class WhiteNoise {
 public:
  /// density in V/√Hz (or any unit/√Hz); the per-sample sigma at sample rate
  /// fs is density·√(fs/2).
  WhiteNoise(double density, util::Hertz sample_rate, util::Rng rng);

  double sample();
  /// Rewinds the draw stream to its construction state, so a reset component
  /// replays bit-identically (the library-wide reset contract, DESIGN.md §8).
  void reset();
  [[nodiscard]] double sigma() const { return sigma_; }

  /// The stream as plain data for the fused frame loop (DESIGN.md §9), which
  /// draws `0.0 + sigma · gaussian` per tick exactly as sample() does.
  struct FrameState {
    util::Rng rng;
    double sigma;
  };
  [[nodiscard]] FrameState frame_state() const { return {rng_, sigma_}; }
  void commit_frame(const FrameState& k) { rng_ = k.rng; }

  /// Checkpoint support (DESIGN.md §14): the stream position is the only
  /// evolving state; sigma and the rewind anchor are construction-time.
  void save_state(state::Writer& w) const { state::save_rng(w, rng_); }
  void load_state(state::Reader& r) { state::load_rng(r, rng_); }

 private:
  double sigma_;
  util::Rng rng_;
  util::Rng initial_rng_;
};

/// Pink (1/f) noise via Voss-McCartney row updates, normalised so that the
/// density equals `density_at_corner` at `corner` Hz.
class FlickerNoise {
 public:
  FlickerNoise(double density_at_corner, util::Hertz corner,
               util::Hertz sample_rate, util::Rng rng);

  double sample();
  /// Restores rows, counter and draw stream to their construction state.
  void reset();

  static constexpr int kRows = 16;
  // FrameState folds /√kRows into its scale; that is only bit-identical to
  // sample() when √kRows is a power of two (exact scaling).
  static_assert(std::has_single_bit(unsigned{kRows}) &&
                    std::countr_zero(unsigned{kRows}) % 2 == 0,
                "kRows must be an even power of two so √kRows scales exactly");

  /// The generator as plain data for the fused frame loop (DESIGN.md §9),
  /// plus the suffix-partial cache of the Voss-McCartney chain: each draw
  /// replaces exactly one row, so only the chain tail below the replaced row
  /// is re-added — on average ~2 additions instead of kRows. Every addition
  /// performed uses the same operands in the same order as sample(), so
  /// draws are bit-identical; the first draw of a frame pays the full chain.
  struct FrameState {
    util::Rng rng;  // the row draws
    std::array<double, kRows> rows;
    std::array<double, kRows + 1> partial;  // partial[j] = Σ rows[kRows-1..j]
    unsigned counter;
    double norm;  // scale/√kRows, folded: one multiply replaces sample()'s
                  // mul+div. √16 = 4, and scaling by a power of two is exact
                  // and commutes with rounding, so scale·Σ/4 and Σ·(scale/4)
                  // round to the same bits (normal range) — still within the
                  // bit-identity contract.
    bool primed;
    /// sample() with the row's Gaussian supplied by the caller: the frame
    /// loop draws it from `rng` through its noise policy (the polar
    /// generator at W = 1, so draw_with(rng.gaussian()) is exactly
    /// sample()), then feeds it through the inherently sequential chain.
    double draw_with(double row_gaussian) {
      ++counter;
      const int row = std::countr_zero(counter) % kRows;
      rows[static_cast<std::size_t>(row)] = row_gaussian;
      const int top = primed ? row : kRows - 1;
      for (int j = top; j >= 0; --j)
        partial[static_cast<std::size_t>(j)] =
            partial[static_cast<std::size_t>(j) + 1] +
            rows[static_cast<std::size_t>(j)];
      primed = true;
      return partial[0] * norm;
    }
  };
  [[nodiscard]] FrameState frame_state() const {
    FrameState k{rng_, rows_, {}, counter_,
                 scale_ / std::sqrt(static_cast<double>(kRows)), false};
    k.partial[kRows] = 0.0;
    return k;
  }
  void commit_frame(const FrameState& k) {
    rng_ = k.rng;
    rows_ = k.rows;
    counter_ = k.counter;
  }

  /// Checkpoint support: rows, row counter and stream position evolve; the
  /// rewind anchors are construction-time.
  void save_state(state::Writer& w) const {
    for (const double row : rows_) w.f64(row);
    w.u32(counter_);
    state::save_rng(w, rng_);
  }
  void load_state(state::Reader& r) {
    for (double& row : rows_) row = r.f64();
    counter_ = r.u32();
    state::load_rng(r, rng_);
  }

 private:
  std::array<double, kRows> rows_{};
  std::array<double, kRows> initial_rows_{};
  unsigned counter_ = 0;
  double scale_;
  util::Rng rng_;
  util::Rng initial_rng_;
};

/// Johnson–Nyquist thermal noise density of a resistor: √(4·kB·T·R) in V/√Hz.
[[nodiscard]] double thermal_noise_density(util::Ohms resistance, util::Kelvin t);

}  // namespace aqua::analog
