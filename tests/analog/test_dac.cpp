#include "analog/dac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "state/serial.hpp"

namespace aqua::analog {
namespace {

using util::Rng;
using util::Seconds;
using util::volts;

ThermometerDacSpec ideal_spec(int bits = 12) {
  ThermometerDacSpec s;
  s.bits = bits;
  s.full_scale = volts(4.0);
  s.element_mismatch_sigma = 0.0;
  s.settling_tau = Seconds{0.0};
  return s;
}

TEST(ThermometerDac, IdealTransferEndpoints) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(0);
  EXPECT_DOUBLE_EQ(dac.static_output().value(), 0.0);
  dac.write_code(dac.max_code());
  EXPECT_NEAR(dac.static_output().value(), 4.0, 1e-12);
}

TEST(ThermometerDac, MidCodeHalfScale) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(2048);
  EXPECT_NEAR(dac.static_output().value(), 4.0 * 2048.0 / 4095.0, 1e-12);
}

TEST(ThermometerDac, CodeClamped) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_code(99999);
  EXPECT_EQ(dac.code(), 4095);
  dac.write_code(-5);
  EXPECT_EQ(dac.code(), 0);
}

TEST(ThermometerDac, WriteVoltagePicksNearestCode) {
  ThermometerDac dac{ideal_spec(), Rng{1}};
  dac.write_voltage(volts(2.0));
  EXPECT_NEAR(dac.static_output().value(), 2.0, 4.0 / 4095.0);
}

TEST(ThermometerDac, MonotonicDespiteMismatch) {
  // Thermometer coding guarantees monotonicity even with big mismatch.
  ThermometerDacSpec s = ideal_spec(10);
  s.element_mismatch_sigma = 0.05;
  ThermometerDac dac{s, Rng{7}};
  double prev = -1.0;
  for (int code = 0; code <= dac.max_code(); ++code) {
    dac.write_code(code);
    const double v = dac.static_output().value();
    EXPECT_GE(v, prev) << "code " << code;
    prev = v;
  }
}

TEST(ThermometerDac, InlBoundedForSpecMismatch) {
  ThermometerDacSpec s = ideal_spec(12);
  s.element_mismatch_sigma = 2e-4;
  ThermometerDac dac{s, Rng{9}};
  double worst = 0.0;
  for (int code = 0; code <= dac.max_code(); code += 13)
    worst = std::max(worst, std::abs(dac.inl_lsb(code)));
  EXPECT_LT(worst, 0.5);  // well-behaved 12-bit part
  // And a zero-mismatch part has (numerically) zero INL.
  ThermometerDac perfect{ideal_spec(), Rng{1}};
  EXPECT_NEAR(perfect.inl_lsb(1234), 0.0, 1e-9);
}

TEST(ThermometerDac, SettlingFollowsFirstOrderLag) {
  ThermometerDacSpec s = ideal_spec();
  s.settling_tau = Seconds{1e-6};
  ThermometerDac dac{s, Rng{1}};
  dac.write_code(4095);
  const double v1 = dac.step(Seconds{1e-6}).value();  // one tau
  EXPECT_NEAR(v1, 4.0 * (1.0 - std::exp(-1.0)), 1e-6);
  for (int i = 0; i < 20; ++i) (void)dac.step(Seconds{1e-6});
  EXPECT_NEAR(dac.step(Seconds{1e-6}).value(), 4.0, 1e-6);
}

TEST(ThermometerDac, TenBitVariant) {
  ThermometerDac dac{ideal_spec(10), Rng{1}};
  EXPECT_EQ(dac.max_code(), 1023);
  dac.write_code(512);
  EXPECT_NEAR(dac.static_output().value(), 4.0 * 512.0 / 1023.0, 1e-12);
}

// The eager model this DAC replaced: every unit element drawn at
// construction from the DAC's own stream, in element order.
std::vector<double> eager_output_volts(const ThermometerDacSpec& spec,
                                       Rng rng) {
  const std::size_t n = std::size_t{1} << spec.bits;
  const int max_code = static_cast<int>(n - 1);
  std::vector<double> cumulative(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double weight =
        1.0 + rng.gaussian(0.0, spec.element_mismatch_sigma);
    cumulative[i + 1] = cumulative[i] + weight;
  }
  std::vector<double> volts(n);
  for (std::size_t c = 0; c < n; ++c)
    volts[c] = spec.full_scale.value() *
               (cumulative[c] / cumulative[n] * static_cast<double>(n) /
                static_cast<double>(max_code));
  return volts;
}

ThermometerDacSpec mismatched_spec(int bits) {
  ThermometerDacSpec s = ideal_spec(bits);
  s.element_mismatch_sigma = 2e-4;
  return s;
}

TEST(ThermometerDac, LazyTableMatchesEagerDrawAtEveryCode) {
  for (const int bits : {10, 12}) {
    const ThermometerDacSpec spec = mismatched_spec(bits);
    const std::vector<double> want = eager_output_volts(spec, Rng{77});
    ThermometerDac dac{spec, Rng{77}};
    // The first nonzero code, whichever it is, draws the whole table.
    dac.write_code(dac.max_code() / 3);
    for (int code = dac.max_code(); code >= 0; --code) {
      dac.write_code(code);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dac.static_output().value()),
                std::bit_cast<std::uint64_t>(want[code]))
          << bits << "-bit, code " << code;
    }
  }
}

TEST(ThermometerDac, NeverWrittenDacHoldsNoTable) {
  ThermometerDac dac{mismatched_spec(12), Rng{5}};
  EXPECT_FALSE(dac.mismatch_drawn());
  dac.write_code(0);
  (void)dac.step(Seconds{1e-6});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dac.static_output().value()),
            std::bit_cast<std::uint64_t>(0.0));
  (void)dac.inl_lsb(1000);  // a const diagnostic draws a temporary table
  EXPECT_FALSE(dac.mismatch_drawn());
  dac.write_code(1);
  EXPECT_TRUE(dac.mismatch_drawn());
}

TEST(ThermometerDac, InlIsTheSameBeforeAndAfterTheDraw) {
  const ThermometerDacSpec spec = mismatched_spec(10);
  const ThermometerDac undrawn{spec, Rng{11}};
  ThermometerDac drawn{spec, Rng{11}};
  drawn.write_code(1);
  for (int code = 0; code <= drawn.max_code(); code += 31)
    EXPECT_EQ(undrawn.inl_lsb(code), drawn.inl_lsb(code)) << "code " << code;
}

TEST(ThermometerDac, MismatchSurvivesReset) {
  const ThermometerDacSpec spec = mismatched_spec(12);
  const std::vector<double> want = eager_output_volts(spec, Rng{21});
  ThermometerDac dac{spec, Rng{21}};
  dac.write_code(3000);
  dac.reset();
  EXPECT_EQ(dac.code(), 0);
  EXPECT_EQ(dac.static_output().value(), 0.0);
  EXPECT_TRUE(dac.mismatch_drawn());
  for (const int code : {1, 1234, 3000, 4095}) {
    dac.write_code(code);
    EXPECT_EQ(dac.static_output().value(), want[code]) << "code " << code;
  }
}

TEST(ThermometerDac, LoadIntoFreshDacAtNonzeroCodeDrawsTheTable) {
  const ThermometerDacSpec spec = mismatched_spec(12);
  ThermometerDac saved{spec, Rng{33}};
  saved.write_code(2500);
  (void)saved.step(Seconds{1e-6});
  state::Writer w;
  saved.save_state(w);

  // No write_code() between the load and the read: the load alone must
  // leave a table behind the restored code.
  ThermometerDac restored{spec, Rng{33}};
  state::Reader r{w.view()};
  restored.load_state(r);
  EXPECT_TRUE(restored.mismatch_drawn());
  EXPECT_EQ(restored.code(), 2500);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.static_output().value()),
            std::bit_cast<std::uint64_t>(saved.static_output().value()));
  EXPECT_EQ(restored.step(Seconds{1e-6}).value(),
            saved.step(Seconds{1e-6}).value());

  state::Writer again;
  restored.save_state(again);
  EXPECT_TRUE(std::ranges::equal(again.view(), w.view()));
}

TEST(ThermometerDac, LoadRejectsACodeOutsideTheRange) {
  state::Writer w;
  w.i32(4096);
  w.f64(0.0);
  ThermometerDac dac{mismatched_spec(12), Rng{1}};
  state::Reader r{w.view()};
  EXPECT_THROW(dac.load_state(r), state::Error);
}

TEST(ThermometerDac, Validation) {
  ThermometerDacSpec bad = ideal_spec();
  bad.bits = 2;
  EXPECT_THROW((ThermometerDac{bad, Rng{1}}), std::invalid_argument);
  bad = ideal_spec();
  bad.full_scale = volts(0.0);
  EXPECT_THROW((ThermometerDac{bad, Rng{1}}), std::invalid_argument);
}

}  // namespace
}  // namespace aqua::analog
