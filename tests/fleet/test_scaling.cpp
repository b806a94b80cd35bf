// Scaling battery for the cost-balanced sharded epoch loop: LPT planner
// properties (including the cold plan for sensors with no measured cost),
// 1k-sensor bit-identity across thread counts under adversarial cost skew,
// mid-run rebalances and pathological manual plans, the "shard assignment
// never changes RNG stream consumption" property, one pool shared by set-up,
// epochs and a second engine, the pool-less epoch as a team of one, every
// worker busy from epoch 0, the measured shard-imbalance metric, and a traced
// 1k-sensor run that fits the trace ring.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "fleet/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace aqua::fleet {
namespace {

using util::Seconds;

// --- LPT planner ------------------------------------------------------------

TEST(ShardPlanner, ProducesAPartitionForAnyShardCount) {
  util::Rng rng{11};
  std::vector<double> costs(97);
  for (double& c : costs) c = rng.uniform(0.1, 5.0);
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                             std::size_t{17}, std::size_t{200}}) {
    const ShardPlan plan = plan_shards(costs, shards);
    EXPECT_EQ(plan.shard_count(), shards);
    EXPECT_TRUE(plan.is_partition_of(costs.size())) << shards << " shards";
    for (const auto& shard : plan.shards)
      for (std::size_t k = 1; k < shard.size(); ++k)
        EXPECT_LT(shard[k - 1], shard[k]) << "shards must be ascending";
  }
  EXPECT_EQ(plan_shards(costs, 0).shard_count(), 1u);  // promoted to 1
}

TEST(ShardPlanner, DeterministicForEqualInputs) {
  util::Rng rng{12};
  std::vector<double> costs(64);
  for (double& c : costs) c = rng.uniform(0.1, 5.0);
  const ShardPlan a = plan_shards(costs, 8);
  const ShardPlan b = plan_shards(costs, 8);
  ASSERT_EQ(a.shards, b.shards);
}

TEST(ShardPlanner, SpreadsFiftyTimesSlowerSensorsOnePerShard) {
  // 8 sensors cost 50×, the rest 1× — the adversarial skew of the scaling
  // tests. LPT must put exactly one heavy sensor in each of 8 shards and
  // then even out the light ones: a perfect split, not 4/3-approximate.
  std::vector<double> costs(64, 1.0);
  for (std::size_t i = 0; i < 64; i += 8) costs[i] = 50.0;
  const ShardPlan plan = plan_shards(costs, 8);
  ASSERT_TRUE(plan.is_partition_of(64));
  for (const auto& shard : plan.shards) {
    int heavy = 0;
    for (const std::uint32_t i : shard) heavy += (costs[i] == 50.0) ? 1 : 0;
    EXPECT_EQ(heavy, 1);
  }
  const std::vector<double> totals = shard_costs(plan, costs);
  for (const double t : totals) EXPECT_DOUBLE_EQ(t, 57.0);
}

// Sizes of the shards of `plan`, smallest and largest.
std::pair<std::size_t, std::size_t> shard_size_range(const ShardPlan& plan) {
  std::size_t smallest = SIZE_MAX, largest = 0;
  for (const auto& shard : plan.shards) {
    smallest = std::min(smallest, shard.size());
    largest = std::max(largest, shard.size());
  }
  return {smallest, largest};
}

TEST(ShardPlanner, AllZeroCostsSplitByCount) {
  // A fresh engine's cost model is all zeros. Counting those sensors as free
  // once stacked the whole fleet on shard 0; now they split by count.
  for (std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{97},
                        std::size_t{1024}})
    for (std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                               std::size_t{8}}) {
      const std::vector<double> costs(n, 0.0);
      const ShardPlan plan = plan_shards(costs, shards);
      ASSERT_TRUE(plan.is_partition_of(n)) << n << " sensors, " << shards;
      const auto [smallest, largest] = shard_size_range(plan);
      EXPECT_LE(largest - smallest, 1u) << n << " sensors, " << shards;
    }
}

TEST(ShardPlanner, UnmeasuredSensorsCountAtTheMeasuredMean) {
  // One sensor measured at 10, four unmeasured: each unmeasured one counts
  // as 10 too, so LPT alternates the five over two shards. (Counted as 1.0
  // they would all land beside each other, opposite the measured sensor.)
  const std::vector<double> one_measured{10.0, 0.0, 0.0, 0.0, 0.0};
  const ShardPlan alternated = plan_shards(one_measured, 2);
  EXPECT_EQ(alternated.shards[0], (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(alternated.shards[1], (std::vector<std::uint32_t>{1, 3}));

  // Measured 6 and 2 (mean 4) plus six unmeasured sensors: at 4 apiece the
  // fleet weighs 32, and LPT splits it 16/16.
  const std::vector<double> mixed{6.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0};
  const ShardPlan plan = plan_shards(mixed, 2);
  ASSERT_TRUE(plan.is_partition_of(mixed.size()));
  std::vector<double> planned = mixed;
  for (double& c : planned)
    if (c <= 0.0) c = 4.0;
  for (const double total : shard_costs(plan, planned))
    EXPECT_DOUBLE_EQ(total, 16.0);
}

// --- fleet fixtures ---------------------------------------------------------

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
};

// Replicas of the bench district (reservoir + hub + 4 tapered chains,
// 32 pipes / 32 sensors each); replicas are hydraulically independent so the
// solve stays cheap at 1k sensors.
District make_district(std::size_t replicas) {
  District d;
  for (std::size_t rep = 0; rep < replicas; ++rep) {
    const auto res = d.net.add_reservoir(45.0);
    const auto hub = d.net.add_junction(2.0, 0.002);
    const auto first_pipe = d.net.pipe_count();
    d.net.add_pipe(res, hub, util::metres(200.0), util::millimetres(250.0));
    for (int chain = 0; chain < 4; ++chain) {
      auto prev = hub;
      for (int k = 0; k < 8; ++k) {
        if (d.net.pipe_count() - first_pipe >= 32) break;
        const auto next = d.net.add_junction(1.5 - 0.1 * k, 0.002);
        d.net.add_pipe(prev, next, util::metres(250.0),
                       util::millimetres(150.0 - 14.0 * k));
        prev = next;
      }
    }
  }
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  return d;
}

// Short epochs keep a 1k-sensor run inside the tier-1 budget; the contract
// is epoch-length independent.
FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 20260808;
  cfg.epoch = Seconds{0.02};
  cfg.demand_factor = diurnal_demand_pattern(Seconds{4.0});
  return cfg;
}

void expect_traces_equal(const FleetEngine& a, const FleetEngine& b,
                         const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ta = a.node(i).trace();
    const auto& tb = b.node(i).trace();
    ASSERT_EQ(ta.size(), tb.size()) << label << " sensor " << i;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      ASSERT_EQ(bits(ta[k].bridge_voltage), bits(tb[k].bridge_voltage))
          << label << " s" << i << " k" << k;
      ASSERT_EQ(bits(ta[k].estimate_mps), bits(tb[k].estimate_mps))
          << label << " s" << i << " k" << k;
      ASSERT_EQ(bits(ta[k].true_mean_mps), bits(tb[k].true_mean_mps))
          << label << " s" << i << " k" << k;
    }
  }
}

// --- 1k-sensor determinism under adversarial cost skew ----------------------

// One sensor in every 128 is hinted 50× slower with measurement off, and the
// planner reshuffles EVERY epoch — so consecutive epochs run under heavily
// skewed, changing partitions. The traces must not care.
std::uint64_t run_skewed(unsigned threads, std::size_t replicas,
                         long long epochs, std::size_t* sample_count) {
  District d = make_district(replicas);
  FleetConfig cfg = make_config();
  cfg.sharding.measure_costs = false;
  cfg.sharding.rebalance_interval_epochs = 1;
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  for (std::size_t i = 0; i < engine.size(); ++i)
    engine.set_cost_hint(i, i % 128 == 0 ? 50.0 : 1.0);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  for (long long e = 0; e < epochs; ++e) engine.step_epoch(pool.get());
  if (sample_count != nullptr) {
    *sample_count = 0;
    for (std::size_t i = 0; i < engine.size(); ++i)
      *sample_count += engine.node(i).trace().size();
  }
  return fault::fleet_trace_checksum(engine);
}

TEST(FleetScaling, ThousandSensorsBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kReplicas = 32;  // 1024 sensors
  constexpr long long kEpochs = 3;
  std::size_t serial_samples = 0;
  const std::uint64_t serial =
      run_skewed(0, kReplicas, kEpochs, &serial_samples);
  EXPECT_EQ(serial_samples, kReplicas * 32 * kEpochs);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::size_t samples = 0;
    const std::uint64_t checksum =
        run_skewed(threads, kReplicas, kEpochs, &samples);
    EXPECT_EQ(samples, serial_samples) << threads << " threads";
    EXPECT_EQ(checksum, serial) << threads << " threads";
  }
}

// --- mid-run rebalances and manual plans ------------------------------------

TEST(FleetScaling, MidRunRebalanceAndManualPlansAreBitIdentical) {
  constexpr std::size_t kReplicas = 8;  // 256 sensors
  District da = make_district(kReplicas);
  FleetEngine baseline(da.net, da.placements, make_config());
  baseline.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  baseline.run(Seconds{0.12});  // 6 epochs, serial, never sharded

  District db = make_district(kReplicas);
  FleetEngine engine(db.net, db.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};

  // Phase 1: two epochs on the automatic cost-balanced plan.
  engine.step_epoch(&pool);
  engine.step_epoch(&pool);
  EXPECT_TRUE(engine.shard_plan().is_partition_of(engine.size()));

  // Phase 2: pin a pathological manual plan — all sensors striped across 16
  // shards by index modulo (nothing cost-balanced about it).
  ShardPlan striped;
  striped.shards.resize(16);
  for (std::uint32_t i = 0; i < engine.size(); ++i)
    striped.shards[i % 16].push_back(i);
  engine.set_shard_plan(striped);
  engine.step_epoch(&pool);
  engine.step_epoch(&pool);

  // Phase 3: unpin and force an immediate rebalance to 3 shards mid-run.
  engine.clear_shard_plan();
  engine.rebalance_shards(3);
  const long long rebalances_before = engine.rebalances();
  engine.step_epoch(&pool);
  engine.step_epoch(&pool);
  EXPECT_GE(engine.rebalances(), rebalances_before);
  EXPECT_EQ(engine.epochs(), 6);

  expect_traces_equal(baseline, engine, "serial vs shard-churned pool(4)");
}

TEST(FleetScaling, RejectsNonPartitionManualPlans) {
  District d = make_district(1);
  FleetEngine engine(d.net, d.placements, make_config());
  ShardPlan missing;  // drops sensor 0
  missing.shards.resize(1);
  for (std::uint32_t i = 1; i < engine.size(); ++i)
    missing.shards[0].push_back(i);
  EXPECT_THROW(engine.set_shard_plan(missing), std::invalid_argument);
  ShardPlan duplicated;
  duplicated.shards.resize(2);
  for (std::uint32_t i = 0; i < engine.size(); ++i) {
    duplicated.shards[0].push_back(i);
    duplicated.shards[1].push_back(i);
  }
  EXPECT_THROW(engine.set_shard_plan(duplicated), std::invalid_argument);
}

// --- RNG stream consumption is shard-plan independent ------------------------

// The property behind all of the above: a sensor's RNG stream position after
// N epochs is a pure function of (root seed, sensor index, N). Run the same
// fleet under three extreme partitions and compare every node's RNG
// fingerprint — if any code path consumed draws depending on the plan (or on
// which worker ran the sensor), the fingerprints diverge.
TEST(FleetScaling, ShardAssignmentNeverChangesRngConsumption) {
  constexpr std::size_t kReplicas = 4;  // 128 sensors
  const auto fingerprints = [](FleetEngine& engine,
                               util::ThreadPool* pool,
                               const ShardPlan* plan) {
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    if (plan != nullptr) engine.set_shard_plan(*plan);
    engine.step_epoch(pool);
    engine.step_epoch(pool);
    std::vector<std::uint64_t> prints;
    prints.reserve(engine.size());
    for (std::size_t i = 0; i < engine.size(); ++i)
      prints.push_back(engine.node(i).rng_fingerprint());
    return prints;
  };

  District ds = make_district(kReplicas);
  FleetEngine serial_engine(ds.net, ds.placements, make_config());
  const auto serial = fingerprints(serial_engine, nullptr, nullptr);

  // Everything in ONE shard: a single worker walks all sensors in order.
  District d1 = make_district(kReplicas);
  FleetEngine one_engine(d1.net, d1.placements, make_config());
  ShardPlan one;
  one.shards.resize(1);
  for (std::uint32_t i = 0; i < one_engine.size(); ++i)
    one.shards[0].push_back(i);
  util::ThreadPool pool8{8};
  const auto one_shard = fingerprints(one_engine, &pool8, &one);

  // Striped across 32 shards: maximal interleaving across 8 workers.
  District d2 = make_district(kReplicas);
  FleetEngine striped_engine(d2.net, d2.placements, make_config());
  ShardPlan striped;
  striped.shards.resize(32);
  for (std::uint32_t i = 0; i < striped_engine.size(); ++i)
    striped.shards[i % 32].push_back(i);
  const auto striped_prints = fingerprints(striped_engine, &pool8, &striped);

  ASSERT_EQ(serial.size(), one_shard.size());
  ASSERT_EQ(serial.size(), striped_prints.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], one_shard[i]) << "sensor " << i;
    EXPECT_EQ(serial[i], striped_prints[i]) << "sensor " << i;
  }
}

// --- one pool for everything ------------------------------------------------

// While an engine held a pool for its epochs, commissioning on that pool or
// stepping a second engine on it waited forever for threads that were parked
// in the first engine's team. Every use of a pool is now one run() call, so
// any sequence of them completes — and still reproduces the serial traces.
TEST(FleetScaling, OnePoolServesSetUpEpochsAndASecondEngine) {
  const std::vector<double> speeds{0.1, 0.4, 0.8};
  const auto sequence = [&](FleetEngine& a, FleetEngine& b,
                            util::ThreadPool* pool) {
    a.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    b.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
    FleetEngine::TeamSession session{a, pool};
    a.step_epoch(pool);
    a.commission(Seconds{0.05}, pool);
    a.calibrate(speeds, Seconds{0.05}, pool);
    b.step_epoch(pool);
    a.step_epoch(pool);
  };

  District sa = make_district(1), sb = make_district(1);
  FleetEngine serial_a(sa.net, sa.placements, make_config());
  FleetEngine serial_b(sb.net, sb.placements, make_config());
  sequence(serial_a, serial_b, nullptr);

  District pa = make_district(1), pb = make_district(1);
  FleetEngine pooled_a(pa.net, pa.placements, make_config());
  FleetEngine pooled_b(pb.net, pb.placements, make_config());
  util::ThreadPool pool{4};
  sequence(pooled_a, pooled_b, &pool);

  EXPECT_EQ(pooled_a.epochs(), 2);
  EXPECT_EQ(pooled_b.epochs(), 1);
  expect_traces_equal(serial_a, pooled_a, "engine a, serial vs pool(4)");
  expect_traces_equal(serial_b, pooled_b, "engine b, serial vs pool(4)");
}

// --- every worker busy from epoch 0 ------------------------------------------

// A fresh engine has measured no cost yet. Its first plan must still give
// every worker a share — by count — and every shard must measure busy time.
void expect_every_shard_busy(const FleetEngine& engine, std::size_t workers,
                             const char* label) {
  const ShardPlan& plan = engine.shard_plan();
  ASSERT_EQ(plan.shard_count(), workers) << label;
  ASSERT_TRUE(plan.is_partition_of(engine.size())) << label;
  const auto [smallest, largest] = shard_size_range(plan);
  EXPECT_GT(smallest, 0u) << label << ": empty shard";
  EXPECT_LE(largest - smallest, 1u) << label;
  ASSERT_EQ(engine.shard_busy_seconds().size(), workers) << label;
  for (std::size_t s = 0; s < workers; ++s)
    EXPECT_GT(engine.shard_busy_seconds()[s], 0.0) << label << " shard " << s;
}

// A TeamSession (kept for fleetbench's epoch loops) changes nothing: the
// cold plan is still spread over the whole pool.
TEST(FleetScaling, ColdPlanUsesEveryWorkerInATeamSession) {
  District d = make_district(1);
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};
  FleetEngine::TeamSession session{engine, &pool};
  engine.step_epoch(&pool);
  expect_every_shard_busy(engine, pool.thread_count(), "team, epoch 0");
}

// The plain pooled step_epoch, with no session around it.
TEST(FleetScaling, ColdPlanUsesEveryWorkerOnTheCoarsePath) {
  District d = make_district(1);
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};
  engine.step_epoch(&pool);
  expect_every_shard_busy(engine, pool.thread_count(), "coarse, epoch 0");
}

TEST(FleetScaling, ColdPlanUsesEveryWorkerWithoutRebalancing) {
  // Interval 0 plans once and never again: that one plan must already be
  // spread, or the whole run stays on one worker.
  District d = make_district(1);
  FleetConfig cfg = make_config();
  cfg.sharding.rebalance_interval_epochs = 0;
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  util::ThreadPool pool{4};
  engine.step_epoch(&pool);
  expect_every_shard_busy(engine, pool.thread_count(), "interval 0, epoch 0");
  const ShardPlan first = engine.shard_plan();
  for (int e = 0; e < 3; ++e) engine.step_epoch(&pool);
  EXPECT_EQ(engine.shard_plan().shards, first.shards);
  EXPECT_EQ(engine.rebalances(), 1);
  expect_every_shard_busy(engine, pool.thread_count(), "interval 0, epoch 3");
}

// --- measured shard imbalance -------------------------------------------------

std::pair<std::uint64_t, double> histogram_count_and_sum(
    const std::string& name) {
  const auto snap = obs::Registry::instance().snapshot();
  for (const auto& h : snap.histograms)
    if (h.name == name) return {h.count, h.sum};
  return {0, 0.0};
}

// All the work in one of four shards must read 4 — measured from the clock,
// where the cost model's prediction at rebalance time read a perfect 1.0
// for a cold fleet piled into shard 0. The cost model is frozen at all
// zeros here, so only the clock can tell the shards apart.
TEST(FleetScaling, ShardImbalanceMeasuresBusyTime) {
  District d = make_district(1);
  FleetConfig cfg = make_config();
  cfg.sharding.measure_costs = false;
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  ShardPlan pinned;
  pinned.shards.resize(4);
  for (std::uint32_t i = 0; i < engine.size(); ++i)
    pinned.shards[0].push_back(i);
  engine.set_shard_plan(pinned);
  util::ThreadPool pool{4};

  // Start from an empty histogram: the difference of two running sums that
  // earlier tests in this process fed loses the last bits of the 4.0.
  obs::Registry::instance().zero();
  const auto [count_before, sum_before] =
      histogram_count_and_sum("fleet.shard.imbalance");
  constexpr int kEpochs = 2;
  for (int e = 0; e < kEpochs; ++e) engine.step_epoch(&pool);
  const auto [count_after, sum_after] =
      histogram_count_and_sum("fleet.shard.imbalance");

  ASSERT_EQ(count_after - count_before, static_cast<std::uint64_t>(kEpochs));
  EXPECT_DOUBLE_EQ((sum_after - sum_before) / kEpochs, 4.0);
  const auto busy = engine.shard_busy_seconds();
  ASSERT_EQ(busy.size(), 4u);
  EXPECT_GT(busy[0], 0.0);
  for (std::size_t s = 1; s < busy.size(); ++s) EXPECT_EQ(busy[s], 0.0);
}

// Without a pool the caller is a team of one: the plan is one shard holding
// every sensor in ascending order, and that shard's busy time is the epoch's
// whole balance — max over mean reads exactly 1.
TEST(FleetScaling, PoolLessEpochIsATeamOfOne) {
  District d = make_district(1);
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  obs::Registry::instance().zero();  // exact sums, as in the test above
  const auto [count_before, sum_before] =
      histogram_count_and_sum("fleet.shard.imbalance");
  engine.step_epoch();
  const auto [count_after, sum_after] =
      histogram_count_and_sum("fleet.shard.imbalance");

  const ShardPlan& plan = engine.shard_plan();
  ASSERT_EQ(plan.shard_count(), 1u);
  std::vector<std::uint32_t> all(engine.size());
  std::iota(all.begin(), all.end(), 0u);
  EXPECT_EQ(plan.shards[0], all);
  ASSERT_EQ(engine.shard_busy_seconds().size(), 1u);
  EXPECT_GT(engine.shard_busy_seconds()[0], 0.0);
  ASSERT_EQ(count_after - count_before, 1u);
  EXPECT_DOUBLE_EQ(sum_after - sum_before, 1.0);
}

// --- trace ring budget --------------------------------------------------------

// A span per sensor per epoch overflowed the 8192-event ring within four
// epochs of a 1k-sensor serial run, losing the start of the trace. Only a
// fixed sample of sensors (the first of each shard) emits spans now.
TEST(FleetTracing, ThousandSensorSerialRunDropsNoTraceEvents) {
  District d = make_district(32);  // 1024 sensors
  FleetEngine engine(d.net, d.placements, make_config());
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  obs::TraceRecorder::set_enabled(true);
  constexpr int kEpochs = 4;
  for (int e = 0; e < kEpochs; ++e) engine.step_epoch();
  obs::TraceRecorder::set_enabled(false);
  const obs::TraceSnapshot snap = recorder.snapshot();
  recorder.clear();

  EXPECT_EQ(snap.dropped_total, 0u);
  int sensor_spans = 0, epoch_spans = 0;
  for (const auto& track : snap.tracks)
    for (const auto& ev : track.events) {
      if (ev.kind != obs::TraceEventKind::kSpanBegin || ev.name == nullptr)
        continue;
      const std::string name = ev.name;
      sensor_spans += name == "fleet.sensor" ? 1 : 0;
      epoch_spans += name == "fleet.epoch" ? 1 : 0;
    }
  EXPECT_EQ(epoch_spans, kEpochs);
  EXPECT_EQ(sensor_spans, kEpochs);  // one sampled sensor per serial epoch
}

// --- cost model ---------------------------------------------------------------

TEST(FleetScaling, CostModelLearnsMeasuredStepTimesByDefault) {
  District d = make_district(1);
  FleetConfig cfg = make_config();
  ASSERT_TRUE(cfg.sharding.measure_costs);
  District d2 = make_district(1);
  FleetEngine engine(d2.net, d2.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.run(Seconds{0.06});  // 3 serial epochs
  for (std::size_t i = 0; i < engine.size(); ++i)
    EXPECT_GT(engine.cost_estimate(i), 0.0) << "sensor " << i;
}

}  // namespace
}  // namespace aqua::fleet
