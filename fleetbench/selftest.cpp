// selftest.cpp — the benchmark's own tests: the checks it relies on must be
// able to fail, and its measurements must not depend on how they are taken.
//
//   python3 fleetbench/run.py --self-test
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace fleetbench;

// A short version of a workload: fewer districts and epochs, same stack.
WorkloadSpec shortened(const std::string& name, std::size_t districts,
                       long long epochs) {
  WorkloadSpec spec = workload(name);
  spec.districts = districts;
  if (spec.checkpoint_every > 0)
    spec.checkpoint_every = std::max(1LL, epochs / 2);
  if (spec.diurnal_day_s > 0.0 && name == "city-1.5k")
    spec.diurnal_day_s = spec.epoch_s * static_cast<double>(epochs);
  spec.epochs = epochs;
  return spec;
}

// Checkpoints go under the working directory (run.py runs the tests from the
// checkout root).
std::string scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / ".bench_build" / "selftest" / name;
  std::filesystem::create_directories(dir);
  return dir.string();
}

RunOptions options_for(const std::string& name, unsigned workers) {
  RunOptions o;
  o.seed = 2008;
  o.workers = workers;
  o.scratch_dir = scratch_dir(name);
  return o;
}

class ShortWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(ShortWorkload, SerialAndPoolChecksumsAgree) {
  const WorkloadSpec spec = shortened(GetParam(), 2, 8);
  const TimedResult serial = run_timed(spec, options_for(spec.name, 0));
  const TimedResult pooled =
      run_timed(spec, options_for(spec.name, available_cpus()));
  EXPECT_TRUE(serial.errors.empty());
  EXPECT_TRUE(pooled.errors.empty());
  EXPECT_EQ(serial.epoch_s.size(), 8u);
  EXPECT_NE(serial.checksum, 0u);
  EXPECT_EQ(serial.checksum, pooled.checksum);
  EXPECT_EQ(serial.accuracy.failed, 0);
}

TEST_P(ShortWorkload, TracedRunReproducesTimedChecksum) {
  const WorkloadSpec spec = shortened(GetParam(), 2, 8);
  const RunOptions options = options_for(spec.name, available_cpus());
  const TimedResult timed = run_timed(spec, options);
  const TracedResult traced = run_traced(spec, options);
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_EQ(timed.checksum, traced.checksum);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ShortWorkload,
                         ::testing::Values("district-1k", "campaign-256-batch",
                                           "city-1.5k"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(Spans, SelfTimesSumToNoMoreThanWallTime) {
  const WorkloadSpec spec = shortened("campaign-256-batch", 1, 4);
  const auto t0 = std::chrono::steady_clock::now();
  const TracedResult traced =
      run_traced(spec, options_for(spec.name, available_cpus()));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  double total = 0.0;
  for (const double s : traced.spans.self_times()) {
    EXPECT_GE(s, -1e-9);
    total += s;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, wall);
  EXPECT_LE(total, traced.wall_s + 1e-9);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanLog log;
  const int outer = log.open("outer", "a");
  const int inner = log.open("inner", "b");
  log.close(inner);
  log.close(outer);
  const auto self = log.self_times();
  const auto& s = log.spans();
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_DOUBLE_EQ(self[0] + self[1], s[0].end_s - s[0].start_s);
  EXPECT_THROW(
      {
        const int a = log.open("x", "a");
        log.open("y", "a");
        log.close(a);
      },
      std::logic_error);
}

// The replay must track the engine exactly, and a replay that evaluates the
// demand schedule one epoch off must be caught.
TEST(HydroReplay, ShiftedByOneEpochFails) {
  WorkloadSpec spec = shortened("city-1.5k", 2, 12);
  const aqua::fleet::FleetConfig config = fleet_config(spec, 2008);
  aqua::hydro::WaterNetwork net = build_network(spec);
  const aqua::hydro::WaterNetwork pristine = net;
  std::vector<double> base(net.node_count());
  for (std::size_t n = 0; n < net.node_count(); ++n) base[n] = net.node_demand(n);
  const auto placements = sensor_placements(spec, net);
  aqua::fleet::FleetEngine engine(net, placements, config);

  HydroReplay exact(pristine, base, config);
  HydroReplay shifted(pristine, base, config);
  ASSERT_TRUE(exact.solve_at(0.0));
  ASSERT_TRUE(shifted.solve_at(0.0));
  EXPECT_TRUE(exact.matches(engine.network()));
  int shifted_mismatches = 0;
  for (long long e = 0; e < spec.epochs; ++e) {
    const double t = engine.now().value();
    ASSERT_TRUE(exact.solve_at(t));
    ASSERT_TRUE(shifted.solve_at(t + config.epoch.value()));
    engine.step_epoch();
    EXPECT_TRUE(exact.matches(engine.network())) << "epoch " << e;
    shifted_mismatches += shifted.matches(engine.network()) ? 0 : 1;
  }
  EXPECT_GT(shifted_mismatches, 0);
}

TEST(ShardsUsed, CountsNonEmptyShards) {
  aqua::fleet::ShardPlan plan;
  plan.shards = {{0, 1, 2}, {}, {3}, {}};
  EXPECT_EQ(shards_used(plan), 2u);
}

// ROADMAP's serialised-fleet defect: LPT over all-zero cost estimates puts
// every sensor in shard 0 until the first rebalance (epoch 16), so the metric
// must read 1 on district-1k's first epochs. When the planner is fixed this
// expectation becomes the worker count.
TEST(ShardsUsed, ShowsTheSerialisedDistrictFleet) {
  const unsigned workers = available_cpus();
  if (workers < 2) GTEST_SKIP() << "needs at least two CPUs";
  WorkloadSpec spec = workload("district-1k");
  spec.epochs = 2;
  const TracedResult traced =
      run_traced(spec, options_for(spec.name, workers));
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_EQ(traced.metrics.at("fleet.shards_used"), 1.0);
  EXPECT_NEAR(traced.metrics.at("fleet.shard_cost_max_over_mean"),
              static_cast<double>(workers), 1e-9);
}

TEST(Tail, PicksTheHighestPercentileWithTenSamplesBeyond) {
  std::vector<double> v(40);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_EQ(tail_of(v).percentile, 75);
  EXPECT_EQ(tail_of(v).value, 30.0);
  v.resize(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_EQ(tail_of(v).percentile, 90);
  EXPECT_EQ(tail_of(v).value, 90.0);
}

}  // namespace
