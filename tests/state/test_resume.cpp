// The headline acceptance for crash-consistent checkpointing (DESIGN.md §14):
// kill a fleet run or a fault campaign at an arbitrary epoch boundary,
// restore the newest checkpoint into freshly constructed objects, and the
// resumed run is bit-identical to the uninterrupted one — same trace
// checksum, same campaign summary — serially and on 8 threads, in scalar and
// kSimdBatch execution. The batch scenario is pinned to the committed
// checksum from tests/simd/test_fleet_batch.cpp, so resume correctness and
// the historical determinism contract are one and the same assertion.
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/supervisor.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace aqua {
namespace {

namespace fs = std::filesystem;
using util::Seconds;
using fleet::ChannelExecution;
using fleet::FleetConfig;
using fleet::FleetEngine;
using fleet::SensorPlacement;

// The test_fleet_batch scenario: its committed checksum makes this suite's
// "resumed == uninterrupted" also mean "resumed == the historical contract".
constexpr std::uint64_t kBatchChecksum = 0x8370b0dd7181b5c1ull;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

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

FleetConfig make_config(ChannelExecution execution) {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260808;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{4.0});
  cfg.execution = execution;
  return cfg;
}

std::uint64_t uninterrupted_checksum(ChannelExecution execution) {
  District d = make_district();
  FleetEngine engine(d.net, d.placements, make_config(execution));
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.2});
  engine.run(Seconds{0.75});
  return fault::fleet_trace_checksum(engine);
}

/// Commissions an engine, steps `kill_after` of the 3 epochs, checkpoints,
/// restores the image into a FRESH engine and finishes the run there.
std::uint64_t resumed_checksum(ChannelExecution execution, int kill_after,
                               int threads) {
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  std::vector<std::uint8_t> image;
  {
    District d = make_district();
    FleetEngine engine(d.net, d.placements, make_config(execution));
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.2});
    for (int e = 0; e < kill_after; ++e) engine.step_epoch(pool.get());
    image = engine.checkpoint();
    // The engine dies here; only `image` survives.
  }
  District d = make_district();
  FleetEngine fresh(d.net, d.placements, make_config(execution));
  fresh.restore(image);
  fresh.run(Seconds{0.25 * (3 - kill_after)}, pool.get());
  return fault::fleet_trace_checksum(fresh);
}

TEST(KillAndResume, ScalarFleetResumesBitIdentically) {
  const std::uint64_t expected = uninterrupted_checksum(ChannelExecution::kScalar);
  for (int kill_after : {1, 2})
    for (int threads : {0, 8})
      EXPECT_EQ(resumed_checksum(ChannelExecution::kScalar, kill_after, threads),
                expected)
          << "killed after epoch " << kill_after << ", " << threads
          << " resume threads";
}

TEST(KillAndResume, BatchFleetResumesToTheCommittedChecksum) {
  ASSERT_EQ(uninterrupted_checksum(ChannelExecution::kSimdBatch), kBatchChecksum);
  for (int kill_after : {1, 2})
    for (int threads : {0, 8})
      EXPECT_EQ(
          resumed_checksum(ChannelExecution::kSimdBatch, kill_after, threads),
          kBatchChecksum)
          << "killed after epoch " << kill_after << ", " << threads
          << " resume threads";
}

TEST(KillAndResume, RestoreRejectsMismatchedConfiguration) {
  District d = make_district();
  FleetEngine engine(d.net, d.placements,
                     make_config(ChannelExecution::kScalar));
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.2});
  engine.step_epoch();
  const auto image = engine.checkpoint();

  {
    District d2 = make_district();
    FleetConfig cfg = make_config(ChannelExecution::kScalar);
    cfg.root_seed = 1;  // a different fleet entirely
    FleetEngine other(d2.net, d2.placements, cfg);
    EXPECT_THROW(other.restore(image), state::Error);
  }
  {
    District d2 = make_district();
    FleetEngine other(d2.net, d2.placements,
                      make_config(ChannelExecution::kSimdBatch));
    EXPECT_THROW(other.restore(image), state::Error);  // execution mode skew
  }
  {
    // Same config, different hydraulic topology.
    District d2;
    const auto res = d2.net.add_reservoir(40.0);
    const auto n1 = d2.net.add_junction(2.0, 0.0015);
    d2.net.add_pipe(res, n1, util::metres(300.0), util::millimetres(200.0));
    d2.placements.push_back(SensorPlacement{0, 0.0});
    FleetEngine other(d2.net, d2.placements,
                      make_config(ChannelExecution::kScalar));
    EXPECT_THROW(other.restore(image), state::Error);
  }
}

TEST(KillAndResume, CorruptedEngineImageNeverRestoresSilently) {
  District d = make_district();
  FleetEngine engine(d.net, d.placements,
                     make_config(ChannelExecution::kScalar));
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.2});
  engine.step_epoch();
  const auto pristine = engine.checkpoint();

  // A strided single-bit sweep across the whole engine image (every byte
  // would take minutes at fleet scale; stride 37 still lands in every
  // section). Every flip must throw state::Error from a fresh restore.
  for (std::size_t byte = 0; byte < pristine.size(); byte += 37) {
    auto image = pristine;
    image[byte] ^= 0x10;
    District d2 = make_district();
    FleetEngine fresh(d2.net, d2.placements,
                      make_config(ChannelExecution::kScalar));
    try {
      fresh.restore(image);
      // CRC32 catches every single-bit flip in payloads and the container
      // validates all framing up front, so reaching here means the flip
      // landed somewhere that must not exist.
      ADD_FAILURE() << "flip at byte " << byte << " restored silently";
    } catch (const state::Error&) {
      // expected: corruption surfaced as a typed error, not UB
    }
  }
}

TEST(KillAndResume, ManagerFallbackResumesAfterTornNewestCheckpoint) {
  // End to end with the durability layer: checkpoint every epoch through a
  // CheckpointManager, tear the newest file, and resume from what
  // load_newest_valid picks — the run must still land on the uninterrupted
  // checksum because the fallback image is older but intact.
  const std::string dir =
      (fs::temp_directory_path() / "aqua_resume_manager_test").string();
  fs::remove_all(dir);
  const std::uint64_t expected = uninterrupted_checksum(ChannelExecution::kScalar);

  state::CheckpointManager manager{dir, "fleet", 3};
  {
    District d = make_district();
    FleetEngine engine(d.net, d.placements,
                       make_config(ChannelExecution::kScalar));
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.2});
    for (int e = 0; e < 2; ++e) {
      engine.step_epoch();
      manager.write(static_cast<std::uint64_t>(e + 1), engine.checkpoint());
    }
  }
  // Tear the newest checkpoint mid-payload.
  const std::vector<std::string> paths = manager.list();
  ASSERT_EQ(paths.size(), 2u);
  auto torn = state::read_file(paths.back());
  torn.resize(torn.size() / 2);
  state::write_file_atomic(paths.back(), torn);

  const auto loaded = manager.load_newest_valid();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);

  District d = make_district();
  FleetEngine fresh(d.net, d.placements, make_config(ChannelExecution::kScalar));
  fresh.restore(loaded->image);
  fresh.run(Seconds{0.5});
  EXPECT_EQ(fault::fleet_trace_checksum(fresh), expected);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fault campaign kill-and-resume: the CampaignRunner checkpoint carries the
// engine, the supervisor state machines, the injector cursors and the
// partial outcomes; a resumed campaign must emit a bit-identical summary.
// ---------------------------------------------------------------------------

fault::FaultCampaign make_campaign() {
  return fault::FaultCampaign::random(2008, 6, 10, Seconds{0.5}, Seconds{6.0},
                                      Seconds{2.0}, Seconds{5.0});
}

FleetConfig campaign_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 2008;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
  return cfg;
}

TEST(KillAndResume, FaultCampaignResumesToTheIdenticalSummary) {
  const Seconds duration{10.0};
  std::string full_json;
  {
    District d = make_district();
    FleetEngine engine(d.net, d.placements, campaign_config());
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.2});
    fleet::FleetSupervisor supervisor(engine);
    const fault::CampaignSummary summary =
        fault::run_campaign(engine, supervisor, make_campaign(), duration);
    full_json = summary.to_json();
  }
  for (int threads : {0, 8}) {
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    std::vector<std::uint8_t> image;
    {
      District d = make_district();
      FleetEngine engine(d.net, d.placements, campaign_config());
      engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
      engine.commission(Seconds{0.2});
      fleet::FleetSupervisor supervisor(engine);
      fault::CampaignRunner runner{engine, supervisor, make_campaign(),
                                   duration};
      for (int e = 0; e < 17; ++e) runner.step(pool.get());
      image = runner.checkpoint();
      // Killed mid-campaign: injector cursors, quarantines and partial
      // outcomes are all in flight at epoch 17.
    }
    District d = make_district();
    FleetEngine engine(d.net, d.placements, campaign_config());
    fleet::FleetSupervisor supervisor(engine);
    fault::CampaignRunner runner{engine, supervisor, make_campaign(), duration};
    runner.restore(image);
    while (!runner.done()) runner.step(pool.get());
    const fault::CampaignSummary summary = runner.finish();
    EXPECT_EQ(summary.to_json(), full_json)
        << "resumed with " << threads << " threads";
  }
}

TEST(KillAndResume, CampaignRestoreRejectsMismatchedCampaign) {
  const Seconds duration{10.0};
  std::vector<std::uint8_t> image;
  {
    District d = make_district();
    FleetEngine engine(d.net, d.placements, campaign_config());
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    engine.commission(Seconds{0.2});
    fleet::FleetSupervisor supervisor(engine);
    fault::CampaignRunner runner{engine, supervisor, make_campaign(), duration};
    for (int e = 0; e < 5; ++e) runner.step();
    image = runner.checkpoint();
  }
  District d = make_district();
  FleetEngine engine(d.net, d.placements, campaign_config());
  fleet::FleetSupervisor supervisor(engine);
  // Wrong duration → different epoch budget → the runner must refuse.
  fault::CampaignRunner runner{engine, supervisor, make_campaign(),
                               Seconds{20.0}};
  EXPECT_THROW(runner.restore(image), state::Error);
}

}  // namespace
}  // namespace aqua
