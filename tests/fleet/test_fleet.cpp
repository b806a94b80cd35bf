// Functional tests of the fleet engine: calibrated sensors track the network
// ground truth, the diurnal pattern modulates what they see, and the
// mass-balance report localizes a leak to the right junction (paper §6's
// "immediately localized and isolated" vision).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/rig.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace aqua::fleet {
namespace {

using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<SensorPlacement> placements;
  hydro::WaterNetwork::NodeId leak_candidate = 0;  // an interior junction
};

// Reservoir → trunk → two branch legs, sensors on all 5 pipes. The b leg is
// longer and draws more, so the a→b cross link carries a small but firmly
// positive flow at every diurnal factor (a symmetric district would leave it
// near zero and stall the solver at night demand).
District make_small_district() {
  District d;
  const auto res = d.net.add_reservoir(40.0);
  const auto hub = d.net.add_junction(2.0, 0.002);
  const auto a = d.net.add_junction(1.0, 0.002);
  const auto b = d.net.add_junction(1.0, 0.005);
  const auto a2 = d.net.add_junction(0.5, 0.003);
  using util::metres;
  using util::millimetres;
  d.net.add_pipe(res, hub, metres(300.0), millimetres(200.0));
  d.net.add_pipe(hub, a, metres(400.0), millimetres(150.0));
  d.net.add_pipe(hub, b, metres(600.0), millimetres(150.0));
  d.net.add_pipe(a, a2, metres(300.0), millimetres(100.0));
  d.net.add_pipe(a, b, metres(300.0), millimetres(100.0));
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(SensorPlacement{p, 0.0});
  d.leak_candidate = a;
  return d;
}

FleetConfig make_config() {
  FleetConfig cfg;
  cfg.sensor.isif = cta::fast_isif_config();
  // The monitoring cadence cares about epoch-scale response, not the paper's
  // 0.1 Hz reporting filter; 2 Hz keeps the estimate tracking the epoch.
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 7;
  cfg.epoch = Seconds{0.25};
  return cfg;
}

TEST(FleetEngine, CalibratedSensorsTrackNetworkTruth) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  engine.commission(Seconds{0.3});
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3});
  engine.run(Seconds{1.5});

  const FleetReport report = engine.report();
  ASSERT_EQ(report.sensors.size(), 5u);
  EXPECT_EQ(engine.solve_failures(), 0);
  for (const SensorSummary& s : report.sensors) {
    EXPECT_EQ(s.samples, 6u) << "sensor " << s.index;
    EXPECT_GT(s.final_true_mps, 0.0) << "sensor " << s.index;
    EXPECT_NEAR(s.final_estimate_mps, s.final_true_mps, 0.12)
        << "sensor " << s.index;
    EXPECT_LT(s.rms_error_mps, 0.2) << "sensor " << s.index;
  }
  // Forward flow on the trunk and both legs (the a→b cross link runs so slow
  // its direction channel is allowed to idle at 0).
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(engine.node(i).trace().back().direction, 1) << "sensor " << i;
}

TEST(FleetEngine, ParallelRunMatchesAccuracyOfSerial) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  util::ThreadPool pool{4};
  engine.commission(Seconds{0.3}, &pool);
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3}, &pool);
  engine.run(Seconds{1.0}, &pool);
  for (const SensorSummary& s : engine.report().sensors)
    EXPECT_NEAR(s.final_estimate_mps, s.final_true_mps, 0.12)
        << "sensor " << s.index;
}

TEST(FleetEngine, MassBalanceReportLocalizesLeak) {
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.sensor.isif = cta::coarse_isif_config();
  FleetEngine engine(d.net, d.placements, cfg);
  engine.commission(Seconds{0.3});
  const std::vector<double> speeds{0.05, 0.2, 0.5, 0.9};
  engine.calibrate(speeds, Seconds{0.3});

  engine.run(Seconds{1.5});
  const FleetReport healthy = engine.report();
  EXPECT_NEAR(healthy.total_leak_m3s, 0.0, 1e-12);
  for (const JunctionBalance& jb : healthy.balances) {
    EXPECT_TRUE(jb.fully_observed) << "node " << jb.node;
    EXPECT_LT(std::abs(jb.residual_m3s), 2e-3) << "node " << jb.node;
  }

  // Spring a pressure-driven leak at an interior junction and give the
  // output filters a moment to settle on the new operating point.
  engine.network().set_leak(d.leak_candidate, 1e-3);
  engine.run(Seconds{1.5});
  const FleetReport leaking = engine.report();
  EXPECT_GT(leaking.total_leak_m3s, 3e-3);

  const auto suspects = leaking.ranked_suspects();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().node, d.leak_candidate);
  EXPECT_GT(suspects.front().residual_m3s, 2e-3);
  // The residual approximates the escaping flow.
  EXPECT_NEAR(suspects.front().residual_m3s, leaking.total_leak_m3s,
              0.5 * leaking.total_leak_m3s);
}

TEST(FleetEngine, DiurnalPatternModulatesVelocity) {
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.demand_factor = diurnal_demand_pattern(Seconds{3.0});
  FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.25});
  engine.run(Seconds{3.0});

  const auto& trunk = engine.node(0).trace();
  ASSERT_FALSE(trunk.empty());
  double lo = trunk.front().true_mean_mps, hi = lo;
  for (const TraceSample& s : trunk) {
    lo = std::min(lo, s.true_mean_mps);
    hi = std::max(hi, s.true_mean_mps);
  }
  // Demand swings 0.3×..1.6× over the compressed day; the trunk velocity must
  // visibly follow (head losses make it sub-proportional).
  EXPECT_GT(hi, 2.0 * lo);
  EXPECT_GT(lo, 0.0);
}

TEST(FleetEngine, UncalibratedSensorsRecordZeroEstimate) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  engine.commission(Seconds{0.25});
  engine.run(Seconds{0.5});
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_FALSE(engine.node(i).calibrated());
    for (const TraceSample& s : engine.node(i).trace())
      EXPECT_EQ(s.estimate_mps, 0.0);
  }
}

TEST(FleetEngine, AccessorsAndLatestEstimates) {
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  EXPECT_EQ(engine.size(), 5u);
  EXPECT_EQ(engine.now().value(), 0.0);
  for (std::size_t i = 0; i < engine.size(); ++i) {
    EXPECT_EQ(engine.node(i).index(), i);
    EXPECT_EQ(engine.node(i).placement().pipe, i);
  }
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});
  engine.commission(Seconds{0.25});
  engine.run(Seconds{0.5});
  EXPECT_NEAR(engine.now().value(), 0.5, 1e-9);  // commission doesn't advance t
  const MaskedEstimates estimates = engine.latest_estimates_masked();
  ASSERT_EQ(estimates.values.size(), 5u);
  EXPECT_EQ(estimates.valid_count(), 5u);
}

TEST(FleetEngine, RecordsSolverTelemetryEveryEpoch) {
  const auto observations = [] {
    for (const auto& h : obs::Registry::instance().snapshot().histograms)
      if (h.name == "fleet.solve_iterations") return h.count;
    return std::uint64_t{0};
  };
  const auto residual = [] {
    for (const auto& g : obs::Registry::instance().snapshot().gauges)
      if (g.name == "fleet.solve_residual") return g.value;
    return -1.0;
  };
  District d = make_small_district();
  FleetEngine engine(d.net, d.placements, make_config());
  const std::uint64_t before = observations();
  constexpr int kEpochs = 3;
  for (int e = 0; e < kEpochs; ++e) engine.step_epoch();
  EXPECT_EQ(observations() - before, static_cast<std::uint64_t>(kEpochs));
  EXPECT_GT(engine.network().last_solve_iterations(), 0);
  EXPECT_EQ(residual(), engine.network().last_solve_residual());
  EXPECT_LT(residual(), 1e-7);
}

TEST(FleetEngine, ThrowsWhenInitialSolveFails) {
  // A 0.1× demand factor starves this district into the laminar regime where
  // the successive-linearisation solve does not converge; the constructor
  // must say so instead of simulating garbage.
  District d = make_small_district();
  FleetConfig cfg = make_config();
  cfg.demand_factor = sim::Schedule{0.1};
  EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::runtime_error);
}

TEST(FleetEngine, ThrowsOnOutOfRangePlacement) {
  District d = make_small_district();
  d.placements.push_back(SensorPlacement{99, 0.0});
  FleetConfig cfg = make_config();
  EXPECT_THROW(FleetEngine(d.net, d.placements, cfg), std::out_of_range);
}

}  // namespace
}  // namespace aqua::fleet
