#include "hydro/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "hydro/profiles.hpp"
#include "phys/fluid.hpp"

namespace aqua::hydro {

using util::Metres;
using util::MetresPerSecond;

namespace {
constexpr double kGravity = 9.80665;
constexpr double kPi = 3.14159265358979323846;
}  // namespace

WaterNetwork::NodeId WaterNetwork::add_junction(double elevation_m,
                                                double demand_m3s) {
  if (!std::isfinite(elevation_m) || !std::isfinite(demand_m3s))
    throw std::invalid_argument("WaterNetwork: non-finite junction");
  nodes_.push_back(
      Node{false, elevation_m, demand_m3s, 0.0, elevation_m + 20.0});
  solver_.valid = false;
  return nodes_.size() - 1;
}

WaterNetwork::NodeId WaterNetwork::add_reservoir(double head_m) {
  if (!std::isfinite(head_m))
    throw std::invalid_argument("WaterNetwork: non-finite reservoir head");
  nodes_.push_back(Node{true, head_m, 0.0, 0.0, head_m});
  solver_.valid = false;
  return nodes_.size() - 1;
}

WaterNetwork::PipeId WaterNetwork::add_pipe(NodeId from, NodeId to,
                                            Metres length, Metres diameter,
                                            double roughness_mm) {
  if (from >= nodes_.size() || to >= nodes_.size() || from == to)
    throw std::invalid_argument("WaterNetwork: bad pipe endpoints");
  if (length.value() <= 0.0 || diameter.value() <= 0.0)
    throw std::invalid_argument("WaterNetwork: bad pipe geometry");
  pipes_.push_back(Pipe{from, to, length.value(), diameter.value(),
                        roughness_mm * 1e-3, 0.0});
  solver_.valid = false;
  return pipes_.size() - 1;
}

void WaterNetwork::set_demand(NodeId junction, double demand_m3s) {
  if (junction >= nodes_.size() || nodes_[junction].reservoir)
    throw std::invalid_argument("WaterNetwork: set_demand needs a junction");
  if (!std::isfinite(demand_m3s))
    throw std::invalid_argument("WaterNetwork: non-finite demand");
  nodes_[junction].demand = demand_m3s;
}

void WaterNetwork::scale_demands(double factor) {
  if (!std::isfinite(factor) || factor < 0.0)
    throw std::invalid_argument(
        "WaterNetwork: negative or non-finite demand factor");
  for (Node& n : nodes_)
    if (!n.reservoir) n.demand *= factor;
}

void WaterNetwork::set_pipe_open(PipeId p, bool open) {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  if (pipes_[p].open != open) solver_.valid = false;
  pipes_[p].open = open;
  if (!open) pipes_[p].flow = 0.0;
}

bool WaterNetwork::pipe_open(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].open;
}

void WaterNetwork::set_leak(NodeId junction, double emitter_coefficient) {
  if (junction >= nodes_.size() || nodes_[junction].reservoir)
    throw std::invalid_argument("WaterNetwork: set_leak needs a junction");
  if (!std::isfinite(emitter_coefficient))
    throw std::invalid_argument("WaterNetwork: non-finite emitter coefficient");
  if (emitter_coefficient < 0.0)
    throw std::invalid_argument("WaterNetwork: negative emitter coefficient");
  nodes_[junction].emitter = emitter_coefficient;
}

void WaterNetwork::rebuild_solver() {
  // Map junctions to unknown indices. A junction with no open incident pipe
  // is hydraulically disconnected (an isolated section): it leaves the
  // system, and solve() depressurises it to its elevation.
  std::vector<bool> connected(nodes_.size(), false);
  for (const Pipe& p : pipes_) {
    if (!p.open) continue;
    connected[p.from] = true;
    connected[p.to] = true;
  }
  std::vector<std::size_t>& unknown_of = solver_.unknown_of;
  unknown_of.assign(nodes_.size(), kNone);
  std::size_t n_unknown = 0;
  solver_.has_reservoir = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].reservoir)
      solver_.has_reservoir = true;
    else if (connected[i])
      unknown_of[i] = n_unknown++;
  }

  std::vector<util::SparseElimination::Entry> entries;
  for (const Pipe& p : pipes_) {
    if (!p.open) continue;
    const std::size_t uf = unknown_of[p.from];
    const std::size_t ut = unknown_of[p.to];
    if (uf != kNone) entries.push_back({uf, uf});
    if (ut != kNone) entries.push_back({ut, ut});
    if (uf != kNone && ut != kNone) {
      entries.push_back({uf, ut});
      entries.push_back({ut, uf});
    }
  }
  util::SparseElimination& system = solver_.system;
  system.set_pattern(n_unknown, entries);

  solver_.slots.assign(pipes_.size(), PipeSlots{kNone, kNone, kNone, kNone});
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    const Pipe& p = pipes_[i];
    if (!p.open) continue;
    const std::size_t uf = unknown_of[p.from];
    const std::size_t ut = unknown_of[p.to];
    PipeSlots& s = solver_.slots[i];
    if (uf != kNone) s.ff = system.slot(uf, uf);
    if (ut != kNone) s.tt = system.slot(ut, ut);
    if (uf != kNone && ut != kNone) {
      s.ft = system.slot(uf, ut);
      s.tf = system.slot(ut, uf);
    }
  }
  solver_.resistance.assign(pipes_.size(), 0.0);
  solver_.saved_heads.resize(nodes_.size());
  solver_.saved_flows.resize(pipes_.size());
  solver_.valid = true;
}

bool WaterNetwork::solve(util::Kelvin water_temperature) {
  const auto props = phys::water_properties(water_temperature);
  if (!solver_.valid) rebuild_solver();
  if (!solver_.has_reservoir)
    throw std::logic_error("WaterNetwork: needs at least one reservoir");
  const std::vector<std::size_t>& unknown_of = solver_.unknown_of;
  util::SparseElimination& system = solver_.system;
  std::vector<double>& resistance = solver_.resistance;

  for (std::size_t i = 0; i < nodes_.size(); ++i)
    solver_.saved_heads[i] = nodes_[i].head;
  for (std::size_t i = 0; i < pipes_.size(); ++i)
    solver_.saved_flows[i] = pipes_[i].flow;
  const auto fail = [this] {
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      nodes_[i].head = solver_.saved_heads[i];
    for (std::size_t i = 0; i < pipes_.size(); ++i)
      pipes_[i].flow = solver_.saved_flows[i];
    return false;
  };
  last_iterations_ = 0;
  last_residual_ = 0.0;

  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!nodes_[i].reservoir && unknown_of[i] == kNone)
      nodes_[i].head = nodes_[i].elevation;  // isolated: zero pressure head
  if (system.size() == 0) return true;

  const std::span<double> a = system.values();
  const std::span<double> b = system.rhs();
  // Successive linearisation: Δh = K·q·|q|  →  q ≈ Δh / (K·|q_prev|), with a
  // laminar-style floor so the first sweep is well-posed.
  for (int iter = 0; iter < 200; ++iter) {
    last_iterations_ = iter + 1;
    system.clear();
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      const Pipe& p = pipes_[i];
      if (!p.open) continue;
      const double area = kPi * 0.25 * p.diameter * p.diameter;
      const double v = std::abs(p.flow) / area;
      const double re = std::max(
          10.0, pipe_reynolds(props, MetresPerSecond{v}, Metres{p.diameter}));
      const double f = darcy_friction_factor(re, p.roughness / p.diameter);
      const double k =
          f * p.length / (p.diameter * 2.0 * kGravity * area * area);
      const double q_floor = 1e-5;  // m³/s
      resistance[i] = k * std::max(std::abs(p.flow), q_floor);
      const double g = 1.0 / resistance[i];

      const std::size_t uf = unknown_of[p.from];
      const std::size_t ut = unknown_of[p.to];
      const PipeSlots& slot = solver_.slots[i];
      if (uf != kNone) {
        a[slot.ff] += g;
        if (ut != kNone)
          a[slot.ft] -= g;
        else
          b[uf] += g * nodes_[p.to].head;
      }
      if (ut != kNone) {
        a[slot.tt] += g;
        if (uf != kNone)
          a[slot.tf] -= g;
        else
          b[ut] += g * nodes_[p.from].head;
      }
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t u = unknown_of[i];
      if (u == kNone) continue;
      // Demand leaves the node; leak handled as a demand from the previous
      // head iterate (fixed-point).
      b[u] -= nodes_[i].demand + leak_flow(i);
    }

    // A singular system: a component without a reservoir, or degenerate.
    if (!system.solve()) return fail();
    const std::span<const double> heads = system.solution();

    // Update node heads (with damping) and pipe flows.
    double max_delta = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const std::size_t u = unknown_of[i];
      if (u == kNone) continue;
      const double new_head = 0.5 * (nodes_[i].head + heads[u]);
      if (!std::isfinite(new_head)) {
        last_residual_ = std::numeric_limits<double>::infinity();
        return fail();
      }
      max_delta = std::max(max_delta, std::abs(new_head - nodes_[i].head));
      nodes_[i].head = new_head;
    }
    last_residual_ = max_delta;
    for (std::size_t i = 0; i < pipes_.size(); ++i) {
      Pipe& p = pipes_[i];
      const double dh = nodes_[p.from].head - nodes_[p.to].head;
      p.flow = p.open ? dh / resistance[i] : 0.0;
    }
    if (max_delta < 1e-7 && iter > 3) return true;
  }
  return fail();
}

WaterNetwork::NodeId WaterNetwork::pipe_from(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].from;
}

WaterNetwork::NodeId WaterNetwork::pipe_to(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].to;
}

Metres WaterNetwork::pipe_diameter(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return Metres{pipes_[p].diameter};
}

double WaterNetwork::node_demand(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir ? 0.0 : nodes_[n].demand;
}

bool WaterNetwork::node_is_reservoir(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir;
}

double WaterNetwork::node_head(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].head;
}

double WaterNetwork::node_pressure_head(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  return nodes_[n].reservoir ? 0.0 : nodes_[n].head - nodes_[n].elevation;
}

double WaterNetwork::pipe_flow(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  return pipes_[p].flow;
}

MetresPerSecond WaterNetwork::pipe_velocity(PipeId p) const {
  if (p >= pipes_.size()) throw std::out_of_range("WaterNetwork: bad pipe");
  const Pipe& pipe = pipes_[p];
  const double area = kPi * 0.25 * pipe.diameter * pipe.diameter;
  return MetresPerSecond{pipe.flow / area};
}

double WaterNetwork::leak_flow(NodeId n) const {
  if (n >= nodes_.size()) throw std::out_of_range("WaterNetwork: bad node");
  const Node& node = nodes_[n];
  if (node.reservoir || node.emitter <= 0.0) return 0.0;
  const double pressure_head = std::max(0.0, node.head - node.elevation);
  return node.emitter * std::sqrt(pressure_head);
}

double WaterNetwork::total_outflow() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].reservoir) continue;
    acc += nodes_[i].demand + leak_flow(i);
  }
  return acc;
}

}  // namespace aqua::hydro
