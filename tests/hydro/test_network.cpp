#include "hydro/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"

namespace aqua::hydro {
namespace {

using util::metres;
using util::millimetres;

TEST(WaterNetwork, SinglePipeDeliversDemand) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);  // 10 L/s
  const auto p = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p), 0.01, 1e-6);
  EXPECT_LT(net.node_head(j), 50.0);  // head loss along the pipe
  EXPECT_GT(net.node_head(j), 0.0);
}

TEST(WaterNetwork, HeadLossMatchesDarcyWeisbach) {
  WaterNetwork net;
  const auto res = net.add_reservoir(80.0);
  const auto j = net.add_junction(0.0, 0.02);
  net.add_pipe(res, j, metres(1000.0), millimetres(200.0), 0.1);
  ASSERT_TRUE(net.solve());
  const double v = net.pipe_velocity(0).value();
  const auto props = phys::water_properties(util::celsius(15.0));
  const auto dp = pressure_drop(props, util::MetresPerSecond{v},
                                millimetres(200.0), metres(1000.0),
                                0.1e-3 / 0.2);
  const double head_loss_m = dp.value() / (props.density * 9.80665);
  EXPECT_NEAR(80.0 - net.node_head(j), head_loss_m, 0.05 * head_loss_m + 0.01);
}

TEST(WaterNetwork, ParallelPipesShareFlow) {
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.03);
  const auto p1 = net.add_pipe(res, j, metres(800.0), millimetres(150.0));
  const auto p2 = net.add_pipe(res, j, metres(800.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p1), net.pipe_flow(p2), 1e-6);
  EXPECT_NEAR(net.pipe_flow(p1) + net.pipe_flow(p2), 0.03, 1e-5);
}

TEST(WaterNetwork, WiderPipeCarriesMore) {
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.03);
  const auto narrow = net.add_pipe(res, j, metres(800.0), millimetres(100.0));
  const auto wide = net.add_pipe(res, j, metres(800.0), millimetres(200.0));
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(wide), 3.0 * net.pipe_flow(narrow));
}

TEST(WaterNetwork, MassConservationAtJunctions) {
  // Y network: reservoir → A → {B, C} with demands at B and C.
  WaterNetwork net;
  const auto res = net.add_reservoir(70.0);
  const auto a = net.add_junction(0.0, 0.0);
  const auto b = net.add_junction(0.0, 0.008);
  const auto c = net.add_junction(0.0, 0.012);
  const auto p_in = net.add_pipe(res, a, metres(300.0), millimetres(200.0));
  const auto p_b = net.add_pipe(a, b, metres(400.0), millimetres(150.0));
  const auto p_c = net.add_pipe(a, c, metres(400.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p_in), net.pipe_flow(p_b) + net.pipe_flow(p_c),
              1e-6);
  EXPECT_NEAR(net.pipe_flow(p_in), 0.02, 1e-5);
}

TEST(WaterNetwork, LeakIncreasesInflowAndDropsPressure) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto a = net.add_junction(0.0, 0.005);
  const auto b = net.add_junction(0.0, 0.005);
  const auto p_in = net.add_pipe(res, a, metres(600.0), millimetres(150.0));
  net.add_pipe(a, b, metres(600.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  const double inflow_before = net.pipe_flow(p_in);
  const double head_before = net.node_head(b);

  net.set_leak(b, 5e-4);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p_in), inflow_before + 1e-4);
  EXPECT_LT(net.node_head(b), head_before);
  EXPECT_GT(net.leak_flow(b), 0.0);
  EXPECT_NEAR(net.total_outflow(), net.pipe_flow(p_in), 1e-5);
}

TEST(WaterNetwork, LoopNetworkConverges) {
  // Classic two-loop grid.
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto n1 = net.add_junction(0.0, 0.005);
  const auto n2 = net.add_junction(0.0, 0.01);
  const auto n3 = net.add_junction(0.0, 0.005);
  const auto n4 = net.add_junction(0.0, 0.01);
  net.add_pipe(res, n1, metres(200.0), millimetres(200.0));
  net.add_pipe(n1, n2, metres(400.0), millimetres(150.0));
  net.add_pipe(n1, n3, metres(400.0), millimetres(150.0));
  net.add_pipe(n2, n4, metres(400.0), millimetres(100.0));
  net.add_pipe(n3, n4, metres(400.0), millimetres(100.0));
  net.add_pipe(n2, n3, metres(300.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  // All junction heads below the reservoir, all positive.
  for (auto n : {n1, n2, n3, n4}) {
    EXPECT_LT(net.node_head(n), 60.0);
    EXPECT_GT(net.node_head(n), 0.0);
  }
}

TEST(WaterNetwork, PipeVelocityConsistentWithFlow) {
  WaterNetwork net;
  const auto res = net.add_reservoir(40.0);
  const auto j = net.add_junction(0.0, 0.01);
  const auto p = net.add_pipe(res, j, metres(100.0), millimetres(100.0));
  ASSERT_TRUE(net.solve());
  const double area = 3.14159265358979 * 0.25 * 0.1 * 0.1;
  EXPECT_NEAR(net.pipe_velocity(p).value(), net.pipe_flow(p) / area, 1e-9);
}

TEST(WaterNetwork, ClosedPipeCarriesNoFlow) {
  // Isolation valves: the "isolated" step of the paper's §6 vision.
  WaterNetwork net;
  const auto res = net.add_reservoir(60.0);
  const auto j = net.add_junction(0.0, 0.02);
  const auto p1 = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  const auto p2 = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p2), 0.005);

  net.set_pipe_open(p2, false);
  ASSERT_TRUE(net.solve());
  EXPECT_TRUE(net.pipe_open(p1));
  EXPECT_FALSE(net.pipe_open(p2));
  EXPECT_NEAR(net.pipe_flow(p2), 0.0, 1e-9);
  EXPECT_NEAR(net.pipe_flow(p1), 0.02, 1e-4);  // all demand reroutes

  net.set_pipe_open(p2, true);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.pipe_flow(p2), 0.005);
}

TEST(WaterNetwork, IsolatingALeakStopsIt) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto a = net.add_junction(0.0, 0.004);
  const auto b = net.add_junction(0.0, 0.0);
  (void)net.add_pipe(res, a, metres(400.0), millimetres(150.0));
  const auto spur = net.add_pipe(a, b, metres(300.0), millimetres(80.0));
  net.set_leak(b, 1e-3);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.leak_flow(b), 1e-3);

  net.set_pipe_open(spur, false);  // close the spur feeding the burst
  ASSERT_TRUE(net.solve());
  // Node b depressurises; the leak loses its supply.
  EXPECT_NEAR(net.leak_flow(b), 0.0, 1e-4);
}

TEST(WaterNetwork, DemandScalingDiurnalPattern) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);
  const auto p = net.add_pipe(res, j, metres(400.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  const double day_flow = net.pipe_flow(p);
  net.scale_demands(0.3);  // night
  ASSERT_TRUE(net.solve());
  EXPECT_NEAR(net.pipe_flow(p), 0.3 * day_flow, 1e-4);
  EXPECT_THROW(net.scale_demands(-1.0), std::invalid_argument);
}

TEST(WaterNetwork, Validation) {
  WaterNetwork net;
  const auto res = net.add_reservoir(10.0);
  const auto j = net.add_junction(0.0);
  EXPECT_THROW((void)net.add_pipe(res, res, metres(1.0), millimetres(100.0)),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_pipe(res, 99, metres(1.0), millimetres(100.0)),
               std::invalid_argument);
  EXPECT_THROW(net.set_demand(res, 0.1), std::invalid_argument);
  EXPECT_THROW(net.set_leak(res, 0.1), std::invalid_argument);
  EXPECT_THROW(net.set_leak(j, -0.1), std::invalid_argument);
  // Non-finite inputs are refused where they enter, not found later as NaN
  // heads behind a "converged" solve.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {kNan, kInf, -kInf}) {
    EXPECT_THROW(net.set_demand(j, bad), std::invalid_argument);
    EXPECT_THROW(net.set_leak(j, bad), std::invalid_argument);
    EXPECT_THROW(net.scale_demands(bad), std::invalid_argument);
    EXPECT_THROW((void)net.add_junction(bad), std::invalid_argument);
    EXPECT_THROW((void)net.add_junction(0.0, bad), std::invalid_argument);
    EXPECT_THROW((void)net.add_reservoir(bad), std::invalid_argument);
  }
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.node_demand(j), 0.0);
  WaterNetwork no_res;
  no_res.add_junction(0.0, 0.01);
  EXPECT_THROW((void)no_res.solve(), std::logic_error);
}

struct Snapshot {
  std::vector<std::uint64_t> heads, flows;
};

Snapshot bits(const WaterNetwork& net) {
  Snapshot s;
  for (std::size_t n = 0; n < net.node_count(); ++n)
    s.heads.push_back(std::bit_cast<std::uint64_t>(net.node_head(n)));
  for (std::size_t p = 0; p < net.pipe_count(); ++p)
    s.flows.push_back(std::bit_cast<std::uint64_t>(net.pipe_flow(p)));
  return s;
}

TEST(WaterNetwork, NonFiniteHeadIterateFailsTheSolve) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);
  net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  ASSERT_TRUE(net.solve());
  const Snapshot before = bits(net);

  // Every input is finite, but the scaled demand overflows to +inf.
  net.set_demand(j, 1e308);
  net.scale_demands(10.0);
  EXPECT_FALSE(net.solve());
  EXPECT_EQ(net.last_solve_iterations(), 1);  // caught in the first sweep
  EXPECT_EQ(net.last_solve_residual(), std::numeric_limits<double>::infinity());
  const Snapshot after = bits(net);
  EXPECT_EQ(after.heads, before.heads);
  EXPECT_EQ(after.flows, before.flows);
}

TEST(WaterNetwork, FailedSolveLeavesThePreviousSolution) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto a = net.add_junction(0.0, 0.004);
  const auto b = net.add_junction(0.0, 0.0);
  const auto loose = net.add_junction(3.0, 0.0);
  net.add_pipe(res, a, metres(400.0), millimetres(150.0));
  net.add_pipe(a, b, metres(300.0), millimetres(80.0));
  const auto to_loose = net.add_pipe(a, loose, metres(100.0), millimetres(80.0));
  // The last good solve sees `loose` isolated; the failing one reconnects
  // it, so restoring must also put back its depressurised head.
  net.set_pipe_open(to_loose, false);
  ASSERT_TRUE(net.solve());
  net.set_pipe_open(to_loose, true);
  const Snapshot before = bits(net);

  // An emitter this large makes the leak fixed point oscillate: no
  // convergence within the sweep budget.
  net.set_leak(b, 0.01);
  EXPECT_FALSE(net.solve());
  EXPECT_EQ(net.last_solve_iterations(), 200);
  EXPECT_GT(net.last_solve_residual(), 1e-7);
  const Snapshot after = bits(net);
  EXPECT_EQ(after.heads, before.heads);
  EXPECT_EQ(after.flows, before.flows);

  // The network is still usable: remove the leak and it solves again.
  net.set_leak(b, 0.0);
  EXPECT_TRUE(net.solve());
}

TEST(WaterNetwork, SolverTelemetry) {
  WaterNetwork net;
  const auto res = net.add_reservoir(50.0);
  const auto j = net.add_junction(0.0, 0.01);
  const auto p = net.add_pipe(res, j, metres(500.0), millimetres(150.0));
  EXPECT_EQ(net.last_solve_iterations(), 0);
  ASSERT_TRUE(net.solve());
  EXPECT_GT(net.last_solve_iterations(), 4);
  EXPECT_LE(net.last_solve_iterations(), 200);
  EXPECT_LT(net.last_solve_residual(), 1e-7);

  // No connected junction: nothing to iterate.
  net.set_pipe_open(p, false);
  ASSERT_TRUE(net.solve());
  EXPECT_EQ(net.last_solve_iterations(), 0);
  EXPECT_EQ(net.last_solve_residual(), 0.0);
}

}  // namespace
}  // namespace aqua::hydro
