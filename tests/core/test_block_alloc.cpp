// test_block_alloc.cpp — proves the steady-state frame loop allocates nothing.
// The block-execution contract (DESIGN.md §9) promises that once the per-node
// scratch is sized, tick_frame()/process_frame() run allocation-free; this
// file counts global allocations (alloc_counter.hpp) and asserts a zero delta
// across settled frames.
#include <vector>

#include <gtest/gtest.h>

#include "core/cta.hpp"
#include "core/rig.hpp"
#include "isif/channel.hpp"
#include "util/rng.hpp"

#include "alloc_counter.hpp"

namespace aqua::cta {
namespace {

using util::Rng;
using util::Seconds;

maf::Environment flowing_water() {
  maf::Environment env;
  env.speed = util::metres_per_second(0.8);
  env.fluid_temperature = util::celsius(15.0);
  env.pressure = util::bar(2.0);
  return env;
}

TEST(BlockAllocation, ChannelProcessFrameIsAllocationFree) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  isif::ChannelConfig cfg{};
  isif::InputChannel ch{cfg, Rng{61}};
  std::vector<double> frame(static_cast<std::size_t>(cfg.decimation), 1e-3);
  (void)ch.process_frame(frame);  // warm-up: anything lazily sized, sizes now
  const long before = allocation_count();
  for (int f = 0; f < 20; ++f) (void)ch.process_frame(frame);
  EXPECT_EQ(allocation_count() - before, 0);
#endif
}

TEST(BlockAllocation, AnemometerTickFrameIsAllocationFree) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  Rng rng{62};
  CtaAnemometer anemo{maf::MafSpec{}, fast_isif_config(), CtaConfig{}, rng};
  const auto env = flowing_water();
  anemo.run(Seconds{0.05}, env);  // settle + size every scratch buffer
  ASSERT_EQ(anemo.tick_phase(), 0);
  const long before = allocation_count();
  for (int f = 0; f < 20; ++f) anemo.tick_frame(env);
  EXPECT_EQ(allocation_count() - before, 0);
#endif
}

}  // namespace
}  // namespace aqua::cta
