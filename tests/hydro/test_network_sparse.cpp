// WaterNetwork::solve against a dense oracle: the same successive
// linearisation, but assembling the full n×n nodal matrix every sweep and
// solving it with util::solve_linear. The sparse elimination must give the
// same return value and the same heads and flows, bit for bit, on meshed and
// looped networks, closed valves, isolated junctions and leaks.
#include "hydro/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace aqua::hydro {
namespace {

using util::metres;
using util::millimetres;
using NodeId = WaterNetwork::NodeId;
using PipeId = WaterNetwork::PipeId;

// Builds a WaterNetwork and records what its accessors do not expose
// (elevations, emitters, pipe lengths and roughness) for the oracle.
struct Mirror {
  WaterNetwork net;
  std::vector<double> elevation, emitter, length, roughness;

  NodeId reservoir(double head) {
    elevation.push_back(head);
    emitter.push_back(0.0);
    return net.add_reservoir(head);
  }
  NodeId junction(double elev, double demand) {
    elevation.push_back(elev);
    emitter.push_back(0.0);
    return net.add_junction(elev, demand);
  }
  PipeId pipe(NodeId from, NodeId to, double length_m, double diameter_mm,
              double roughness_mm = 0.1) {
    length.push_back(length_m);
    roughness.push_back(roughness_mm * 1e-3);
    return net.add_pipe(from, to, metres(length_m), millimetres(diameter_mm),
                        roughness_mm);
  }
  void leak(NodeId n, double c) {
    emitter[n] = c;
    net.set_leak(n, c);
  }
};

struct Solution {
  bool ok = false;
  std::vector<double> heads, flows;
};

Solution current(const WaterNetwork& net) {
  Solution s{true, {}, {}};
  for (NodeId n = 0; n < net.node_count(); ++n) s.heads.push_back(net.node_head(n));
  for (PipeId p = 0; p < net.pipe_count(); ++p) s.flows.push_back(net.pipe_flow(p));
  return s;
}

// The dense oracle, starting from the network's current heads and flows.
Solution dense_solve(const Mirror& m) {
  constexpr double kGravity = 9.80665;
  constexpr double kPi = 3.14159265358979323846;
  const WaterNetwork& net = m.net;
  const auto props = phys::water_properties(util::celsius(15.0));
  Solution s = current(net);
  s.ok = false;
  const std::size_t nodes = net.node_count();

  std::vector<bool> connected(nodes, false);
  for (PipeId p = 0; p < net.pipe_count(); ++p) {
    if (!net.pipe_open(p)) continue;
    connected[net.pipe_from(p)] = true;
    connected[net.pipe_to(p)] = true;
  }
  std::vector<std::size_t> unknown_of(nodes, SIZE_MAX);
  std::size_t n = 0;
  for (NodeId i = 0; i < nodes; ++i) {
    if (net.node_is_reservoir(i)) continue;
    if (connected[i])
      unknown_of[i] = n++;
    else
      s.heads[i] = m.elevation[i];
  }
  if (n == 0) {
    s.ok = true;
    return s;
  }
  const auto leak = [&](NodeId i) {
    if (net.node_is_reservoir(i) || m.emitter[i] <= 0.0) return 0.0;
    return m.emitter[i] * std::sqrt(std::max(0.0, s.heads[i] - m.elevation[i]));
  };
  const auto resistance = [&](PipeId p) {
    const double d = net.pipe_diameter(p).value();
    const double area = kPi * 0.25 * d * d;
    const double v = std::abs(s.flows[p]) / area;
    const double re = std::max(
        10.0, pipe_reynolds(props, util::MetresPerSecond{v}, util::Metres{d}));
    const double f = darcy_friction_factor(re, m.roughness[p] / d);
    const double k = f * m.length[p] / (d * 2.0 * kGravity * area * area);
    return k * std::max(std::abs(s.flows[p]), 1e-5);
  };

  for (int iter = 0; iter < 200; ++iter) {
    std::vector<double> a(n * n, 0.0);
    std::vector<double> b(n, 0.0);
    for (PipeId p = 0; p < net.pipe_count(); ++p) {
      if (!net.pipe_open(p)) continue;
      const double g = 1.0 / resistance(p);
      const NodeId from = net.pipe_from(p);
      const NodeId to = net.pipe_to(p);
      const std::size_t uf = unknown_of[from];
      const std::size_t ut = unknown_of[to];
      if (uf != SIZE_MAX) {
        a[uf * n + uf] += g;
        if (ut != SIZE_MAX)
          a[uf * n + ut] -= g;
        else
          b[uf] += g * s.heads[to];
      }
      if (ut != SIZE_MAX) {
        a[ut * n + ut] += g;
        if (uf != SIZE_MAX)
          a[ut * n + uf] -= g;
        else
          b[ut] += g * s.heads[from];
      }
    }
    for (NodeId i = 0; i < nodes; ++i)
      if (unknown_of[i] != SIZE_MAX) b[unknown_of[i]] -= net.node_demand(i) + leak(i);

    std::vector<double> x;
    try {
      x = util::solve_linear(std::move(a), std::move(b));
    } catch (const std::invalid_argument&) {
      return s;
    }
    double max_delta = 0.0;
    for (NodeId i = 0; i < nodes; ++i) {
      if (unknown_of[i] == SIZE_MAX) continue;
      const double new_head = 0.5 * (s.heads[i] + x[unknown_of[i]]);
      max_delta = std::max(max_delta, std::abs(new_head - s.heads[i]));
      s.heads[i] = new_head;
    }
    std::vector<double> flows(net.pipe_count(), 0.0);
    for (PipeId p = 0; p < net.pipe_count(); ++p)
      if (net.pipe_open(p))
        flows[p] = (s.heads[net.pipe_from(p)] - s.heads[net.pipe_to(p)]) / resistance(p);
    s.flows = flows;
    if (max_delta < 1e-7 && iter > 3) {
      s.ok = true;
      return s;
    }
  }
  return s;
}

void expect_bits_equal(const std::vector<double>& got,
                       const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << "[" << i << "] = " << got[i] << " vs " << want[i];
}

// Solves with both; on success the network must hold the oracle's bits, on
// failure (both must fail together) its state on entry.
bool expect_matches_dense(Mirror& m) {
  const Solution before = current(m.net);
  const Solution want = dense_solve(m);
  const bool ok = m.net.solve();
  EXPECT_EQ(ok, want.ok);
  const Solution got = current(m.net);
  expect_bits_equal(got.heads, ok ? want.heads : before.heads, "head");
  expect_bits_equal(got.flows, ok ? want.flows : before.flows, "flow");
  return ok;
}

// A rows×cols street grid fed from two opposite corners, with asymmetric
// demands and diameters so no pipe idles in the laminar regime.
Mirror grid(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Mirror m;
  util::Rng rng(seed);
  const NodeId north = m.reservoir(60.0);
  std::vector<NodeId> j;
  for (std::size_t i = 0; i < rows * cols; ++i)
    j.push_back(m.junction(rng.uniform(0.0, 3.0), rng.uniform(0.002, 0.006)));
  const NodeId south = m.reservoir(55.0);
  m.pipe(north, j.front(), 200.0, 300.0);
  m.pipe(south, j.back(), 200.0, 300.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      if (c + 1 < cols)
        m.pipe(j[i], j[i + 1], rng.uniform(150.0, 400.0), rng.uniform(100.0, 200.0));
      if (r + 1 < rows)
        m.pipe(j[i], j[i + cols], rng.uniform(150.0, 400.0), rng.uniform(100.0, 200.0));
    }
  return m;
}

TEST(NetworkDenseOracle, MeshedGrids) {
  int converged = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Mirror m = grid(3 + seed % 3, 4, seed);
    converged += expect_matches_dense(m);
    for (double factor : {0.5, 1.6, 0.8}) {
      m.net.scale_demands(factor);
      converged += expect_matches_dense(m);
    }
  }
  EXPECT_GE(converged, 12);  // the comparison covers real solutions
}

TEST(NetworkDenseOracle, LoopedNetwork) {
  Mirror m;
  const auto res = m.reservoir(60.0);
  const auto n1 = m.junction(0.0, 0.005);
  const auto n2 = m.junction(0.0, 0.01);
  const auto n3 = m.junction(0.0, 0.005);
  const auto n4 = m.junction(0.0, 0.01);
  m.pipe(res, n1, 200.0, 200.0);
  m.pipe(n1, n2, 400.0, 150.0);
  m.pipe(n1, n3, 400.0, 150.0);
  m.pipe(n2, n4, 400.0, 100.0);
  m.pipe(n3, n4, 400.0, 100.0);
  m.pipe(n2, n3, 300.0, 100.0);
  m.pipe(res, n4, 900.0, 100.0);  // a second feed closes another loop
  EXPECT_TRUE(expect_matches_dense(m));
  m.net.set_demand(n4, 0.02);
  EXPECT_TRUE(expect_matches_dense(m));
}

TEST(NetworkDenseOracle, ClosedValvesAndIsolatedJunctions) {
  Mirror m = grid(4, 4, 42);
  const NodeId loose = m.junction(1.0, 0.003);  // never connected
  EXPECT_TRUE(expect_matches_dense(m));
  EXPECT_EQ(m.net.node_head(loose), 1.0);  // depressurised to its elevation

  // Close a valve inside the mesh, then cut one junction off completely.
  m.net.set_pipe_open(5, false);
  EXPECT_TRUE(expect_matches_dense(m));
  for (PipeId p = 0; p < m.net.pipe_count(); ++p)
    if (m.net.pipe_from(p) == 6 || m.net.pipe_to(p) == 6) m.net.set_pipe_open(p, false);
  EXPECT_TRUE(expect_matches_dense(m));
  EXPECT_EQ(m.net.node_pressure_head(6), 0.0);

  for (PipeId p = 0; p < m.net.pipe_count(); ++p) m.net.set_pipe_open(p, true);
  EXPECT_TRUE(expect_matches_dense(m));
}

TEST(NetworkDenseOracle, Leaks) {
  Mirror m = grid(3, 5, 9);
  m.leak(4, 5e-4);
  m.leak(11, 1e-3);
  EXPECT_TRUE(expect_matches_dense(m));
  m.leak(4, 0.0);
  m.net.scale_demands(1.3);
  EXPECT_TRUE(expect_matches_dense(m));
}

TEST(NetworkDenseOracle, ReplicatedDistricts) {
  // The fleet's district: a reservoir feeding four radial chains of tapered
  // mains; independent replicas make a block-diagonal system.
  Mirror m;
  for (int rep = 0; rep < 3; ++rep) {
    const auto res = m.reservoir(45.0);
    const auto hub = m.junction(2.0, 0.002);
    m.pipe(res, hub, 200.0, 250.0);
    for (int chain = 0; chain < 4; ++chain) {
      NodeId prev = hub;
      for (int k = 0; k < (chain == 3 ? 7 : 8); ++k) {
        const NodeId next = m.junction(1.5 - 0.1 * k, 0.002);
        m.pipe(prev, next, 250.0, 150.0 - 14.0 * k);
        prev = next;
      }
    }
  }
  EXPECT_TRUE(expect_matches_dense(m));
  for (double factor : {0.3, 1.6 / 0.3}) {
    m.net.scale_demands(factor);
    EXPECT_TRUE(expect_matches_dense(m));
  }
}

TEST(NetworkDenseOracle, FailedSolvesAgree) {
  // An emitter this large never lets the leak fixed point settle.
  Mirror m;
  const auto res = m.reservoir(50.0);
  const auto a = m.junction(0.0, 0.004);
  const auto b = m.junction(0.0, 0.0);
  m.pipe(res, a, 400.0, 150.0);
  m.pipe(a, b, 300.0, 80.0);
  EXPECT_TRUE(expect_matches_dense(m));
  m.leak(b, 0.01);
  EXPECT_FALSE(expect_matches_dense(m));
}

}  // namespace
}  // namespace aqua::hydro
