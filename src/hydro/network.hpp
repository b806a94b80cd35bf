// network.hpp — steady-state hydraulic solver for a water-distribution
// network. The paper's motivation (§6) is "diffusive monitoring in water
// distribution networks": many cheap insertion sensors spread over the pipes
// so that "any malfunction behaviour (e.g. water loss in tube)" can be
// "immediately localized and isolated". This module provides the network
// substrate for that application: junctions with demands, reservoirs with
// fixed heads, Darcy–Weisbach pipes, and pressure-dependent leak emitters.
//
// The solver iterates successive linearisation of the head-loss relation
// Δh = K(q)·q·|q| (friction factor refreshed from Re each sweep). Each sweep
// assembles the nodal system — a graph Laplacian over the connected
// junctions, about three nonzeros per row — and solves it with a sparse
// elimination that reproduces the dense util::solve_linear bit for bit
// (DESIGN.md §15), so a city of thousands of pipes costs what its pipes cost.
// The sparsity pattern depends only on the open-pipe topology: it is cached
// here, rebuilt after add_junction/add_reservoir/add_pipe, a valve change or
// load_state, and neither serialised nor copied. On an unchanged topology a
// solve after the first allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "state/serial.hpp"
#include "util/sparse_elimination.hpp"
#include "util/units.hpp"

namespace aqua::hydro {

class WaterNetwork {
 public:
  using NodeId = std::size_t;
  using PipeId = std::size_t;

  /// Junction with a consumer demand (m³/s) at the given elevation. Throws
  /// std::invalid_argument on a non-finite elevation or demand.
  NodeId add_junction(double elevation_m, double demand_m3s = 0.0);

  /// Reservoir/tank with a fixed hydraulic head (m); throws
  /// std::invalid_argument on a non-finite head.
  NodeId add_reservoir(double head_m);

  PipeId add_pipe(NodeId from, NodeId to, util::Metres length,
                  util::Metres diameter, double roughness_mm = 0.1);

  /// Throws std::invalid_argument on a reservoir or a non-finite demand.
  void set_demand(NodeId junction, double demand_m3s);

  /// Scales every junction demand by `factor` (diurnal pattern: night flow
  /// ~0.3, morning peak ~1.6 of the base demand). Throws
  /// std::invalid_argument on a negative or non-finite factor.
  void scale_demands(double factor);

  /// Opens/closes an isolation valve on a pipe. A closed pipe carries
  /// (essentially) no flow — the "isolated" step of the paper's
  /// leak-management vision.
  void set_pipe_open(PipeId p, bool open);
  [[nodiscard]] bool pipe_open(PipeId p) const;

  /// Leak emitter at a junction: q_leak = C·√(pressure head). C in
  /// m³/s per √m; 0 removes the leak. Throws std::invalid_argument on a
  /// reservoir or a negative or non-finite coefficient.
  void set_leak(NodeId junction, double emitter_coefficient);

  /// Solves the network. Returns false when the iteration does not converge
  /// within 200 sweeps, the nodal system is singular, or a head iterate is
  /// non-finite; every head and flow is then left as it was on entry.
  /// Throws std::logic_error when the network has no reservoir.
  [[nodiscard]] bool solve(util::Kelvin water_temperature = util::celsius(15.0));

  // --- solver telemetry: the last solve(), converged or not ---
  /// Linearisation sweeps it ran (0 when no junction was connected).
  [[nodiscard]] int last_solve_iterations() const { return last_iterations_; }
  /// Largest head change (m) in its final sweep: below 1e-7 once converged,
  /// +inf when a head iterate was non-finite.
  [[nodiscard]] double last_solve_residual() const { return last_residual_; }

  // --- topology/geometry accessors (fleet attachment, mass-balance checks) ---
  [[nodiscard]] NodeId pipe_from(PipeId p) const;
  [[nodiscard]] NodeId pipe_to(PipeId p) const;
  [[nodiscard]] util::Metres pipe_diameter(PipeId p) const;
  [[nodiscard]] double node_demand(NodeId n) const;  ///< m³/s (0 for reservoirs)
  [[nodiscard]] bool node_is_reservoir(NodeId n) const;

  [[nodiscard]] double node_head(NodeId n) const;
  /// Pressure head above elevation (m of water column).
  [[nodiscard]] double node_pressure_head(NodeId n) const;
  [[nodiscard]] double pipe_flow(PipeId p) const;  ///< m³/s, from→to positive
  [[nodiscard]] util::MetresPerSecond pipe_velocity(PipeId p) const;
  [[nodiscard]] double leak_flow(NodeId n) const;  ///< m³/s out of the network

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t pipe_count() const { return pipes_.size(); }
  /// Total demand + leak outflow (m³/s) — mass-balance checks in tests.
  [[nodiscard]] double total_outflow() const;

  /// Checkpoint support: demands, emitters, valve states and — critically for
  /// bit-identical resume — the last solution (heads and flows), which seeds
  /// the next solve's successive linearisation.
  void save_state(state::Writer& w) const {
    w.size(nodes_.size());
    for (const Node& n : nodes_) {
      w.f64(n.demand);
      w.f64(n.emitter);
      w.f64(n.head);
    }
    w.size(pipes_.size());
    for (const Pipe& p : pipes_) {
      w.f64(p.flow);
      w.boolean(p.open);
    }
  }
  void load_state(state::Reader& r) {
    solver_.valid = false;  // valve states come from the image
    if (r.size(24) != nodes_.size())
      throw state::Error("WaterNetwork: node count mismatch");
    for (Node& n : nodes_) {
      n.demand = r.f64();
      n.emitter = r.f64();
      n.head = r.f64();
    }
    if (r.size(9) != pipes_.size())
      throw state::Error("WaterNetwork: pipe count mismatch");
    for (Pipe& p : pipes_) {
      p.flow = r.f64();
      p.open = r.boolean();
    }
  }

 private:
  struct Node {
    bool reservoir;
    double elevation;  // m (junction) — reservoirs store head here
    double demand = 0.0;
    double emitter = 0.0;
    double head = 0.0;  // solution
  };
  struct Pipe {
    NodeId from, to;
    double length, diameter, roughness;  // m, m, m
    double flow = 0.0;                   // solution, m³/s
    bool open = true;
  };

  static constexpr std::size_t kNone = SIZE_MAX;

  // A pipe's four nodal-matrix entries (from,from), (from,to), (to,to),
  // (to,from) as slots of the system; kNone where an end is not an unknown.
  struct PipeSlots {
    std::size_t ff, ft, tt, tf;
  };

  // State derived from the open-pipe topology, rebuilt by solve() when stale.
  // A copy (or move) of the network starts without it and rebuilds it on its
  // first solve, so network copies stay as small as their nodes and pipes.
  struct Solver {
    Solver() = default;
    Solver(const Solver&) {}
    Solver& operator=(const Solver&) {
      valid = false;
      return *this;
    }

    bool valid = false;
    bool has_reservoir = false;
    std::vector<std::size_t> unknown_of;  // node → unknown, or kNone
    std::vector<PipeSlots> slots;
    util::SparseElimination system;
    // Per-solve scratch: each pipe's linearised resistance K·max(|q|, q_floor)
    // for the current sweep, and the heads and flows a failed solve restores.
    std::vector<double> resistance, saved_heads, saved_flows;
  };

  void rebuild_solver();

  std::vector<Node> nodes_;
  std::vector<Pipe> pipes_;
  Solver solver_;

  int last_iterations_ = 0;
  double last_residual_ = 0.0;
};

}  // namespace aqua::hydro
