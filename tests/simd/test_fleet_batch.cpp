// Fleet-level SIMD batch execution: the batch path's committed determinism
// checksum reproduces at every configured lane width and thread count, the
// scalar path is untouched by the new mode plumbing, and sensors that cannot
// join a lane group (parked mid-frame by a re-commission) fall back to the
// scalar path without perturbing any neighbour's RNG stream.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "util/thread_pool.hpp"

namespace aqua::fleet {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

// The looped 8-junction district of the fleet determinism tests: one sensor
// on every one of the 10 pipes.
District make_district() {
  District d;
  const auto res = d.net.add_reservoir(40.0);
  const auto n1 = d.net.add_junction(2.0, 0.0015);
  const auto n2 = d.net.add_junction(2.0, 0.0025);
  const auto n3 = d.net.add_junction(1.5, 0.0025);
  const auto n4 = d.net.add_junction(1.0, 0.0020);
  const auto n5 = d.net.add_junction(1.0, 0.0020);
  const auto n6 = d.net.add_junction(0.5, 0.0015);
  const auto n7 = d.net.add_junction(0.5, 0.0015);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, n1, metres(300.0), millimetres(200.0));
  d.net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  d.net.add_pipe(n2, n4, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n3, n5, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  d.net.add_pipe(n4, n6, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n5, n7, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n4, n5, metres(250.0), millimetres(80.0));
  d.net.add_pipe(n6, n7, metres(250.0), millimetres(80.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  return d;
}

FleetConfig make_config(ChannelExecution execution, int lane_width) {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260808;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = diurnal_demand_pattern(Seconds{4.0});
  cfg.execution = execution;
  cfg.batch_lane_width = lane_width;
  return cfg;
}

std::uint64_t run_checksum(ChannelExecution execution, int lane_width,
                           unsigned threads) {
  District d = make_district();
  FleetEngine engine(d.net, d.placements,
                     make_config(execution, lane_width));
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  engine.commission(Seconds{0.2}, pool.get());
  engine.run(Seconds{0.75}, pool.get());
  return fault::fleet_trace_checksum(engine);
}

/// The batch path's committed determinism checksum for this scenario — the
/// analogue of the scalar path's legacy checksum. Any configured lane width
/// (the chain is element-wise IEEE arithmetic, identical at every W) and any
/// thread count must reproduce it; an update to this constant is a semantic
/// change to the batch chain and needs DESIGN.md §13's justification.
constexpr std::uint64_t kBatchChecksum = 0x8370b0dd7181b5c1ull;

/// The scalar path's checksum for the same scenario (ChannelExecution::
/// kScalar, serial): InputChannel::process_frame with the polar generator.
/// The scalar chain is the bit-identity reference, so this must never move.
constexpr std::uint64_t kScalarChecksum = 0x3a400c370779efffull;

TEST(FleetBatch, ChecksumInvariantAcrossLaneWidthsAndThreads) {
  const std::uint64_t reference =
      run_checksum(ChannelExecution::kSimdBatch, 1, 0);
  std::printf("batch checksum %016llx\n",
              static_cast<unsigned long long>(reference));
  for (int width : {0, 2, 4, 8}) {
    EXPECT_EQ(run_checksum(ChannelExecution::kSimdBatch, width, 0), reference)
        << "width " << width;
  }
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run_checksum(ChannelExecution::kSimdBatch, 0, threads),
              reference)
        << threads << " threads";
  }
  EXPECT_EQ(reference, kBatchChecksum);
}

TEST(FleetBatch, BatchAndScalarModesIntentionallyDiverge) {
  // Guard that the lanes actually engage: the batch path draws its channel
  // noise through the branch-free Box-Muller generator, so its traces must
  // differ from the scalar reference (which stays the committed bit-identity
  // baseline — unchanged by the mode plumbing, as the legacy determinism
  // tests keep proving).
  const std::uint64_t scalar = run_checksum(ChannelExecution::kScalar, 0, 0);
  const std::uint64_t batch = run_checksum(ChannelExecution::kSimdBatch, 0, 0);
  EXPECT_EQ(scalar, kScalarChecksum);
  EXPECT_NE(scalar, batch);
}

TEST(FleetBatch, MidFrameSensorFallsBackToScalarWithoutPerturbingNeighbours) {
  // Park sensor 3 mid-frame with a re-commission whose settle is not a whole
  // number of decimation frames; in batch mode it must advance through the
  // scalar path (permanently — tick phase is invariant modulo the frame)
  // while its neighbours stay in the lanes. Its trace must be bit-identical
  // to the scalar-mode run of the same scenario, and every node's RNG stream
  // position must agree across the two modes.
  // coarse ISIF: tick 62.5 µs, decimation 8. 0.0503 s → 805 ticks → phase 5.
  District d_batch = make_district();
  FleetEngine batch(d_batch.net, d_batch.placements,
                    make_config(ChannelExecution::kSimdBatch, 0));
  batch.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  batch.commission(Seconds{0.2});
  (void)batch.recommission(3, Seconds{0.0503});
  ASSERT_FALSE(batch.node(3).batch_eligible());
  ASSERT_TRUE(batch.node(2).batch_eligible());
  batch.run(Seconds{0.75});

  District d_scalar = make_district();
  FleetEngine scalar(d_scalar.net, d_scalar.placements,
                     make_config(ChannelExecution::kScalar, 0));
  scalar.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  scalar.commission(Seconds{0.2});
  (void)scalar.recommission(3, Seconds{0.0503});
  scalar.run(Seconds{0.75});

  // The mid-frame sensor took the scalar path in both runs: bit-identical.
  const auto& tb = batch.node(3).trace();
  const auto& ts = scalar.node(3).trace();
  ASSERT_EQ(tb.size(), ts.size());
  for (std::size_t k = 0; k < tb.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tb[k].bridge_voltage),
              std::bit_cast<std::uint64_t>(ts[k].bridge_voltage))
        << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tb[k].estimate_mps),
              std::bit_cast<std::uint64_t>(ts[k].estimate_mps))
        << k;
  }

  // Neighbours' traces differ (they took the lanes) but every node consumed
  // its turbulence stream identically — the fallback never shifts a draw.
  EXPECT_NE(std::bit_cast<std::uint64_t>(batch.node(2).trace().back().bridge_voltage),
            std::bit_cast<std::uint64_t>(scalar.node(2).trace().back().bridge_voltage));
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch.node(i).rng_fingerprint(),
              scalar.node(i).rng_fingerprint())
        << "sensor " << i;
}

}  // namespace
}  // namespace aqua::fleet
