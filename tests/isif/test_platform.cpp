#include "isif/platform.hpp"

#include <gtest/gtest.h>

namespace aqua::isif {
namespace {

using util::Rng;

TEST(Isif, HasFourChannelsAndSixDacs) {
  Isif soc{IsifConfig{}, Rng{1}};
  for (int i = 0; i < Isif::kChannelCount; ++i)
    EXPECT_NO_THROW((void)soc.channel(i));
  for (int i = 0; i < Isif::kDacCount; ++i) EXPECT_NO_THROW((void)soc.dac(i));
  EXPECT_THROW((void)soc.channel(4), std::out_of_range);
  EXPECT_THROW((void)soc.dac(6), std::out_of_range);
  EXPECT_THROW((void)soc.channel(-1), std::out_of_range);
}

TEST(Isif, DacBitWidthsMatchPaper) {
  // "configurable 12 bit and 10 bit thermometer DACs" — 4× 12-bit, 2× 10-bit.
  Isif soc{IsifConfig{}, Rng{2}};
  EXPECT_EQ(soc.dac(0).dac().max_code(), 4095);
  EXPECT_EQ(soc.dac(3).dac().max_code(), 4095);
  EXPECT_EQ(soc.dac(4).dac().max_code(), 1023);
  EXPECT_EQ(soc.dac(5).dac().max_code(), 1023);
}

TEST(Isif, OnlyADrivenDacDrawsItsMismatchTable) {
  Isif soc{IsifConfig{}, Rng{2}};
  soc.dac(0).request_code(2000);
  (void)soc.dac(0).update(util::Seconds{1e-6});
  EXPECT_TRUE(soc.dac(0).dac().mismatch_drawn());
  for (int i = 1; i < Isif::kDacCount; ++i)
    EXPECT_FALSE(soc.dac(i).dac().mismatch_drawn()) << "dac " << i;
}

TEST(Isif, RegistersConfigureChannelGain) {
  Isif soc{IsifConfig{}, Rng{3}};
  soc.registers().write_field("CH0_CFG", "gain_sel", 5);  // gain 32
  soc.registers().write_field("CH2_CFG", "gain_sel", 0);  // gain 1
  soc.apply_registers();
  EXPECT_DOUBLE_EQ(soc.channel(0).gain(), 32.0);
  EXPECT_DOUBLE_EQ(soc.channel(2).gain(), 1.0);
}

TEST(Isif, RegisterMapHasChannelAndDacEntries) {
  Isif soc{IsifConfig{}, Rng{4}};
  EXPECT_TRUE(soc.registers().has("CH0_CFG"));
  EXPECT_TRUE(soc.registers().has("CH3_CFG"));
  EXPECT_TRUE(soc.registers().has("DAC_CFG"));
}

TEST(Isif, FirmwareBaseRateIsDecimatedChannelRate) {
  IsifConfig cfg;
  cfg.channel.modulator_clock = util::hertz(256e3);
  cfg.channel.decimation = 128;
  Isif soc{cfg, Rng{5}};
  EXPECT_DOUBLE_EQ(soc.firmware().base_rate().value(), 2000.0);
}

TEST(Isif, ChannelsHaveIndependentNoiseStreams) {
  Isif soc{IsifConfig{}, Rng{6}};
  // Drive both with the same input; decimated codes should differ (different
  // offset/noise draws), proving the RNG split.
  std::int32_t c0 = 0, c1 = 0;
  for (int i = 0; i < 128 * 8; ++i) {
    if (auto s = soc.channel(0).tick(util::millivolts(3.0))) c0 = s->code;
    if (auto s = soc.channel(1).tick(util::millivolts(3.0))) c1 = s->code;
  }
  EXPECT_NE(c0, c1);
}

}  // namespace
}  // namespace aqua::isif
