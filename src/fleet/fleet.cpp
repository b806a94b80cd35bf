#include "fleet/fleet.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phys/fluid.hpp"

namespace aqua::fleet {

using util::Seconds;

namespace {
constexpr double kGravity = 9.80665;

// Fleet-engine telemetry. The latency histograms record wall time — useful
// for scheduling analysis, explicitly outside the determinism contract (the
// counters and the simulation traces are the deterministic part).
const obs::Counter kEpochs{"fleet.epochs"};
const obs::Counter kSolveFailures{"fleet.solve_failures"};
const obs::Counter kSensorSteps{"fleet.sensor_steps"};
const obs::Histogram kEpochWall{"fleet.epoch_wall_seconds",
                                obs::HistogramSpec{1e-5, 100.0, 42, true}};
const obs::Histogram kSensorStepWall{"fleet.sensor_step_wall_seconds",
                                     obs::HistogramSpec{1e-6, 10.0, 42, true}};
// Sharding telemetry: how often the planner ran, and how balanced each
// sharded epoch really was — max over mean of the per-shard busy seconds
// measured with the clock (1.0 is a perfect split; k shards with all the work
// in one read k).
const obs::Counter kRebalances{"fleet.shard.rebalances"};
const obs::Histogram kShardImbalance{"fleet.shard.imbalance",
                                     obs::HistogramSpec{1.0, 64.0, 24, true}};
const obs::Gauge kShardCount{"fleet.shard.count"};
// Hydraulic solver telemetry, per epoch: linearisation sweeps (a slow epoch
// with many sweeps is a hard solve, not a slow sensor) and the final sweep's
// largest head change in metres.
const obs::Histogram kSolveIterations{"fleet.solve_iterations",
                                      obs::HistogramSpec{1.0, 256.0, 16, true}};
const obs::Gauge kSolveResidual{"fleet.solve_residual"};

// Checkpoint sections (DESIGN.md §14).
constexpr std::uint32_t kSectionMeta = state::section_id('M', 'E', 'T', 'A');
constexpr std::uint32_t kSectionObs = state::section_id('O', 'B', 'S', 'C');
constexpr std::uint32_t kSectionNet = state::section_id('N', 'E', 'T', 'W');
constexpr std::uint32_t kSectionEngine = state::section_id('F', 'L', 'E', 'N');
constexpr std::uint32_t kSectionNodes = state::section_id('N', 'O', 'D', 'S');

// The counters that are part of the deterministic surface (the fleet
// determinism suite compares them across thread counts); a resumed run must
// finish with the same totals as an uninterrupted one, so they travel in the
// checkpoint. Wall-clock histograms and scheduling counters stay out.
constexpr const char* kCheckpointedCounters[] = {
    "fleet.epochs",
    "fleet.solve_failures",
    "fleet.sensor_steps",
    "fleet.supervisor.quarantines",
    "fleet.supervisor.recoveries",
    "fleet.supervisor.failures",
    "fleet.supervisor.recommission_attempts",
    "fleet.supervisor.self_test_failures",
    "fault.injected",
    "isif.channel.samples",
    "isif.channel.overload_blocks",
    "cta.pi.saturation_events",
    "cta.pi.antiwindup_holds",
    "cta.loop.adc_overload_ticks",
};
}  // namespace

sim::Schedule diurnal_demand_pattern(Seconds day) {
  const double d = day.value();
  sim::Schedule pattern{0.3};
  pattern.hold(Seconds{0.25 * d})                  // night valley
      .ramp_to(1.6, Seconds{0.08 * d})             // morning peak
      .ramp_to(1.0, Seconds{0.10 * d})             // settle to daytime
      .hold(Seconds{0.25 * d})                     // daytime plateau
      .ramp_to(1.3, Seconds{0.10 * d})             // evening peak
      .hold(Seconds{0.12 * d})
      .ramp_to(0.3, Seconds{0.10 * d});            // back to night
  return pattern;
}

void FleetEngine::HotState::resize(std::size_t n) {
  mean_velocity_mps.assign(n, 0.0);
  point_velocity_mps.assign(n, 0.0);
  pressure_pa.assign(n, 0.0);
  temperature_k.assign(n, 0.0);
  t_s.assign(n, 0.0);
  bridge_voltage.assign(n, 0.0);
  filtered_voltage.assign(n, 0.0);
  estimate_mps.assign(n, 0.0);
  direction.assign(n, 0);
  has_sample.assign(n, 0);
  cost_ewma_s.assign(n, 0.0);
}

FleetEngine::FleetEngine(hydro::WaterNetwork& network,
                         std::span<const SensorPlacement> placements,
                         const FleetConfig& config)
    : net_(network), config_(config) {
  base_demands_.resize(net_.node_count(), 0.0);
  for (hydro::WaterNetwork::NodeId n = 0; n < net_.node_count(); ++n)
    base_demands_[n] = net_.node_demand(n);

  nodes_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    nodes_.push_back(std::make_unique<SensorNode>(
        i, placements[i], config_.sensor, net_.pipe_diameter(placements[i].pipe),
        util::Rng::stream(config_.root_seed, i)));
  }
  estimate_valid_.assign(nodes_.size(), 1);
  hot_.resize(nodes_.size());

  apply_demand_factor(config_.demand_factor.at(Seconds{0.0}));
  if (!net_.solve(config_.water_temperature))
    throw std::runtime_error("FleetEngine: initial network solve failed");
}

FleetEngine::~FleetEngine() { end_team(); }

void FleetEngine::apply_demand_factor(double factor) {
  for (hydro::WaterNetwork::NodeId n = 0; n < net_.node_count(); ++n)
    if (!net_.node_is_reservoir(n))
      net_.set_demand(n, base_demands_[n] * factor);
}

PipeState FleetEngine::pipe_state_for(const SensorNode& node) const {
  const auto pipe = node.placement().pipe;
  PipeState state;
  state.temperature = config_.water_temperature;
  state.mean_velocity_mps = net_.pipe_velocity(pipe).value();
  state.point_velocity_mps =
      state.mean_velocity_mps *
      node.profile_factor_at(state.mean_velocity_mps, state.temperature);
  // Static pressure at the probe: the upstream node's pressure head (the
  // downstream end for a reservoir-fed pipe) on the atmospheric floor.
  auto tap = net_.pipe_from(pipe);
  if (net_.node_is_reservoir(tap)) tap = net_.pipe_to(pipe);
  const double head = net_.node_is_reservoir(tap)
                          ? 0.0
                          : std::max(0.0, net_.node_pressure_head(tap));
  const double rho = phys::water_properties(state.temperature).density;
  state.pressure =
      util::Pascals{config_.atmospheric.value() + rho * kGravity * head};
  return state;
}

void FleetEngine::dispatch(util::ThreadPool* pool,
                           const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(nodes_.size(), body);
  } else {
    for (std::size_t i = 0; i < nodes_.size(); ++i) body(i);
  }
}

void FleetEngine::commission(Seconds settle, util::ThreadPool* pool) {
  AQUA_TRACE_SPAN_SIM("fleet.commission", t_.value());
  std::vector<PipeState> states;
  states.reserve(nodes_.size());
  for (const auto& node : nodes_) states.push_back(pipe_state_for(*node));
  dispatch(pool, [&](std::size_t i) {
    // Power-up built-in self-test first (paper §3's test bus); the test
    // restores the channel bit-exactly, so the settle below is unaffected.
    (void)nodes_[i]->run_self_test();
    nodes_[i]->commission(states[i], settle);
  });
}

isif::ChannelSelfTestResult FleetEngine::recommission(std::size_t i,
                                                      Seconds settle) {
  AQUA_TRACE_SPAN_SIM("fleet.recommission", t_.value());
  nodes_[i]->reboot();
  const isif::ChannelSelfTestResult result = nodes_[i]->run_self_test();
  nodes_[i]->commission(pipe_state_for(*nodes_[i]), settle);
  return result;
}

void FleetEngine::calibrate(std::span<const double> mean_speeds, Seconds dwell,
                            util::ThreadPool* pool) {
  AQUA_TRACE_SPAN_SIM("fleet.calibrate", t_.value());
  std::vector<PipeState> states;
  states.reserve(nodes_.size());
  for (const auto& node : nodes_) states.push_back(pipe_state_for(*node));
  dispatch(pool, [&](std::size_t i) {
    nodes_[i]->calibrate(states[i], mean_speeds, dwell);
  });
}

void FleetEngine::set_shared_fit(const cta::KingFit& fit) {
  for (auto& node : nodes_) node->set_fit(fit, config_.water_temperature);
}

void FleetEngine::begin_team(util::ThreadPool* pool) {
  if (pool == nullptr) return;
  if (team_ != nullptr && team_pool_ == pool) return;
  end_team();
  const std::size_t n = pool->thread_count();
  // Worker w owns shards w, w+n, w+2n, … of whatever plan is current when an
  // epoch is released — so manual plans with more shards than workers still
  // execute completely.
  team_ = std::make_unique<util::WorkerTeam>(
      *pool, n, [this, n](std::size_t w) {
        for (std::size_t s = w; s < plan_.shard_count(); s += n)
          process_shard(s);
      });
  team_pool_ = pool;
}

void FleetEngine::end_team() {
  team_.reset();  // ~WorkerTeam releases and joins the parked tasks
  team_pool_ = nullptr;
}

void FleetEngine::run(Seconds duration, util::ThreadPool* pool) {
  const long long epochs = static_cast<long long>(
      std::ceil(duration.value() / config_.epoch.value()));
  // Persistent-team fast path: park one epoch task per worker for the whole
  // run. If the caller already scoped a TeamSession, reuse it.
  const bool own_team = pool != nullptr && team_ == nullptr;
  struct TeamGuard {
    FleetEngine* engine;
    ~TeamGuard() {
      if (engine != nullptr) engine->end_team();
    }
  } guard{own_team ? this : nullptr};
  if (own_team) begin_team(pool);
  for (long long e = 0; e < epochs; ++e) step_epoch(pool);
}

void FleetEngine::set_cost_hint(std::size_t i, double seconds) {
  hot_.cost_ewma_s[i] = seconds;
}

void FleetEngine::set_shard_plan(ShardPlan plan) {
  if (!plan.is_partition_of(nodes_.size()))
    throw std::invalid_argument(
        "FleetEngine::set_shard_plan: not a partition of the sensor indices");
  plan_ = std::move(plan);
  plan_manual_ = true;
  kShardCount.set(static_cast<double>(plan_.shard_count()));
}

void FleetEngine::clear_shard_plan() { plan_manual_ = false; }

void FleetEngine::rebalance_shards(std::size_t shard_count) {
  plan_ = plan_shards(hot_.cost_ewma_s, shard_count);
  ++rebalances_;
  kRebalances.add(1);
  kShardCount.set(static_cast<double>(plan_.shard_count()));
  AQUA_TRACE_INSTANT_SIM("fleet.shard_rebalance", t_.value());
}

void FleetEngine::ensure_plan(std::size_t shard_count) {
  if (plan_manual_) return;  // pinned by set_shard_plan — validated partition
  const bool stale = plan_.shard_count() != shard_count ||
                     plan_.sensor_count() != nodes_.size();
  const long long interval = config_.sharding.rebalance_interval_epochs;
  const bool due =
      interval > 0 && epoch_index_ > 0 && (epoch_index_ % interval) == 0;
  if (stale || due) rebalance_shards(shard_count);
}

void FleetEngine::snapshot_epoch_inputs() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const PipeState state = pipe_state_for(*nodes_[i]);
    hot_.mean_velocity_mps[i] = state.mean_velocity_mps;
    hot_.point_velocity_mps[i] = state.point_velocity_mps;
    hot_.pressure_pa[i] = state.pressure.value();
    hot_.temperature_k[i] = state.temperature.value();
  }
}

void FleetEngine::publish_sample(std::size_t i) {
  // Publish the sample fields into the SoA mirror (disjoint slot — safe from
  // any worker) so cold readers never chase the node pointer.
  const TraceSample& s = nodes_[i]->trace().back();
  hot_.t_s[i] = s.t_s;
  hot_.bridge_voltage[i] = s.bridge_voltage;
  hot_.filtered_voltage[i] = s.filtered_voltage;
  hot_.estimate_mps[i] = s.estimate_mps;
  hot_.direction[i] = static_cast<std::int8_t>(s.direction);
  hot_.has_sample[i] = 1;
  kSensorSteps.add(1);
}

void FleetEngine::record_cost(std::size_t i, double seconds) {
  kSensorStepWall.observe(seconds);
  if (config_.sharding.measure_costs) {
    const double alpha = config_.sharding.cost_ewma_alpha;
    hot_.cost_ewma_s[i] =
        hot_.cost_ewma_s[i] <= 0.0
            ? seconds
            : (1.0 - alpha) * hot_.cost_ewma_s[i] + alpha * seconds;
  }
}

PipeState FleetEngine::snapshot_state(std::size_t i) const {
  PipeState state;
  state.mean_velocity_mps = hot_.mean_velocity_mps[i];
  state.point_velocity_mps = hot_.point_velocity_mps[i];
  state.pressure = util::Pascals{hot_.pressure_pa[i]};
  state.temperature = util::Kelvin{hot_.temperature_k[i]};
  return state;
}

void FleetEngine::advance_sensor(std::size_t i, bool sampled) {
  // One span per sensor per epoch would wrap a thread's trace ring within a
  // few epochs of a 1k-sensor fleet, so only the sampled sensor emits one.
  std::optional<obs::ScopedSpan> sensor_span;
  if (sampled)
    sensor_span.emplace("fleet.sensor", t_.value(), static_cast<double>(i));
  const auto t0 = std::chrono::steady_clock::now();

  nodes_[i]->advance(snapshot_state(i), config_.epoch);
  publish_sample(i);

  const double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  record_cost(i, dt);
}

void FleetEngine::advance_sensor_group(std::span<const std::uint32_t> ids) {
  // A singleton still goes through the fused kernel: the batch path's noise
  // draw order differs from scalar advance, so falling back for groups of one
  // would make results depend on how the shard planner happened to chunk the
  // fleet — e.g. an LPT plan with more shards than heavy sensors. Lane math
  // is per-sensor, so group composition itself never changes results.
  if (ids.empty()) return;
  const obs::ScopedSpan group_span{"fleet.sensor_group", t_.value(),
                                   static_cast<double>(ids.size())};
  const auto t0 = std::chrono::steady_clock::now();

  thread_local std::vector<SensorNode*> group_nodes;
  thread_local std::vector<PipeState> group_states;
  group_nodes.clear();
  group_states.clear();
  group_nodes.reserve(ids.size());
  group_states.reserve(ids.size());
  for (const std::uint32_t i : ids) {
    group_nodes.push_back(nodes_[i].get());
    group_states.push_back(snapshot_state(i));
  }
  SensorNode::advance_group(group_nodes, group_states, config_.epoch,
                            config_.batch_lane_width);

  // The lanes advance the whole group together, so per-sensor wall time is
  // unobservable — split the group time evenly. The cost model only feeds
  // the shard planner, which is outside the determinism contract anyway.
  const double dt = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count() /
                    static_cast<double>(ids.size());
  for (const std::uint32_t i : ids) {
    publish_sample(i);
    record_cost(i, dt);
  }
}

void FleetEngine::advance_sensors(std::span<const std::uint32_t> ids) {
  if (config_.execution != ChannelExecution::kSimdBatch) {
    for (const std::uint32_t i : ids) advance_sensor(i, i == ids.front());
    return;
  }
  // Batch mode: frame-aligned sensors form one lane group (ascending shard
  // order); the rest — e.g. a node parked mid-frame by commissioning — step
  // scalar. Either way each sensor consumes exactly its own RNG stream, so
  // the split never perturbs results (DESIGN.md §13).
  thread_local std::vector<std::uint32_t> batch_ids;
  batch_ids.clear();
  batch_ids.reserve(ids.size());
  for (const std::uint32_t i : ids) {
    if (nodes_[i]->batch_eligible())
      batch_ids.push_back(i);
    else
      advance_sensor(i, i == ids.front());
  }
  advance_sensor_group(batch_ids);
}

void FleetEngine::process_shard(std::size_t shard) {
  const std::vector<std::uint32_t>& ids = plan_.shards[shard];
  if (ids.empty()) {
    shard_busy_s_[shard] = 0.0;
    return;
  }
  const obs::ScopedSpan shard_span{"fleet.shard", t_.value(),
                                   static_cast<double>(shard)};
  const auto t0 = std::chrono::steady_clock::now();
  advance_sensors(ids);
  shard_busy_s_[shard] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
}

void FleetEngine::observe_shard_balance() const {
  double sum = 0.0, max = 0.0;
  for (const double busy : shard_busy_s_) {
    sum += busy;
    max = std::max(max, busy);
  }
  if (sum > 0.0)
    kShardImbalance.observe(
        max * static_cast<double>(shard_busy_s_.size()) / sum);
}

void FleetEngine::step_epoch(util::ThreadPool* pool) {
  const obs::ScopedTimer epoch_timer{kEpochWall};
  AQUA_TRACE_SPAN_SIM("fleet.epoch", t_.value());
  AQUA_TRACE_COUNTER("fleet.sim_time_s", t_.value());
  apply_demand_factor(config_.demand_factor.at(t_));
  {
    AQUA_TRACE_SPAN_SIM("fleet.solve", t_.value());
    if (!net_.solve(config_.water_temperature)) {
      ++solve_failures_;
      kSolveFailures.add(1);
      AQUA_TRACE_INSTANT_SIM("fleet.solve_failure", t_.value());
    }
    kSolveIterations.observe(net_.last_solve_iterations());
    kSolveResidual.set(net_.last_solve_residual());
  }
  // Snapshot serially so every sensor task reads a frozen network state.
  snapshot_epoch_inputs();

  const bool use_team = team_ != nullptr && pool == team_pool_;
  if (use_team) {
    ensure_plan(team_->workers());
    shard_busy_s_.assign(plan_.shard_count(), 0.0);
    team_->run_epoch();  // barrier out, barrier in — zero enqueues
    observe_shard_balance();
  } else if (pool != nullptr) {
    // One coarse task per shard per epoch — never a per-sensor micro-task.
    ensure_plan(pool->thread_count());
    shard_busy_s_.assign(plan_.shard_count(), 0.0);
    std::vector<std::future<void>> futures;
    futures.reserve(plan_.shard_count());
    for (std::size_t s = 0; s < plan_.shard_count(); ++s)
      futures.push_back(pool->submit([this, s] { process_shard(s); }));
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    observe_shard_balance();
  } else {
    // Serial epoch: the whole fleet is one "shard" (in batch mode that means
    // one lane group per epoch — chunking differences never change results).
    thread_local std::vector<std::uint32_t> all_ids;
    if (all_ids.size() != nodes_.size()) {
      all_ids.resize(nodes_.size());
      for (std::size_t i = 0; i < nodes_.size(); ++i)
        all_ids[i] = static_cast<std::uint32_t>(i);
    }
    shard_busy_s_.clear();
    advance_sensors(all_ids);
  }

  t_ += config_.epoch;
  ++epoch_index_;
  kEpochs.add(1);
}

void FleetEngine::write_checkpoint(state::CheckpointWriter& ck) const {
  {
    state::Writer& w = ck.begin_section(kSectionMeta);
    w.u64(config_.root_seed);
    // Validation-only counts travel as bare u64s: Reader::size() bounds a
    // count by the bytes behind it, which is wrong for counts whose elements
    // live in *other* sections.
    w.u64(nodes_.size());
    w.f64(config_.epoch.value());
    w.u8(static_cast<std::uint8_t>(config_.execution));
    w.i32(config_.batch_lane_width);
    w.u64(net_.node_count());
    w.u64(net_.pipe_count());
    ck.end_section();
  }
  {
    // Merged totals of the deterministic counters at the quiescent point.
    state::Writer& w = ck.begin_section(kSectionObs);
    const obs::Snapshot snap = obs::Registry::instance().snapshot();
    w.size(std::size(kCheckpointedCounters));
    for (const char* name : kCheckpointedCounters) {
      std::uint64_t value = 0;
      for (const obs::CounterSnapshot& c : snap.counters)
        if (c.name == name) {
          value = c.value;
          break;
        }
      w.str(name);
      w.u64(value);
    }
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionNet);
    net_.save_state(w);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionEngine);
    w.f64(t_.value());
    w.i64(epoch_index_);
    w.i64(solve_failures_);
    w.i64(rebalances_);
    w.size(estimate_valid_.size());
    for (const std::uint8_t v : estimate_valid_) w.u8(v);
    state::save_f64_vector(w, hot_.mean_velocity_mps);
    state::save_f64_vector(w, hot_.point_velocity_mps);
    state::save_f64_vector(w, hot_.pressure_pa);
    state::save_f64_vector(w, hot_.temperature_k);
    state::save_f64_vector(w, hot_.t_s);
    state::save_f64_vector(w, hot_.bridge_voltage);
    state::save_f64_vector(w, hot_.filtered_voltage);
    state::save_f64_vector(w, hot_.estimate_mps);
    w.size(hot_.direction.size());
    for (const std::int8_t d : hot_.direction)
      w.u8(static_cast<std::uint8_t>(d));
    w.size(hot_.has_sample.size());
    for (const std::uint8_t h : hot_.has_sample) w.u8(h);
    state::save_f64_vector(w, hot_.cost_ewma_s);
    ck.end_section();
  }
  {
    state::Writer& w = ck.begin_section(kSectionNodes);
    w.size(nodes_.size());
    for (const auto& node : nodes_) node->save_state(w);
    ck.end_section();
  }
}

std::vector<std::uint8_t> FleetEngine::checkpoint() const {
  state::CheckpointWriter ck;
  write_checkpoint(ck);
  return ck.finish();
}

void FleetEngine::read_checkpoint(const state::CheckpointReader& ck) {
  {
    state::Reader r = ck.section(kSectionMeta);
    if (r.u64() != config_.root_seed)
      throw state::Error("FleetEngine: checkpoint root seed mismatch");
    if (r.u64() != nodes_.size())
      throw state::Error("FleetEngine: checkpoint sensor count mismatch");
    if (std::bit_cast<std::uint64_t>(r.f64()) !=
        std::bit_cast<std::uint64_t>(config_.epoch.value()))
      throw state::Error("FleetEngine: checkpoint epoch length mismatch");
    if (r.u8() != static_cast<std::uint8_t>(config_.execution))
      throw state::Error("FleetEngine: checkpoint execution mode mismatch");
    if (r.i32() != config_.batch_lane_width)
      throw state::Error("FleetEngine: checkpoint lane width mismatch");
    if (r.u64() != net_.node_count() || r.u64() != net_.pipe_count())
      throw state::Error("FleetEngine: checkpoint network topology mismatch");
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionObs);
    const std::size_t n = r.size(9);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string name = r.str();
      obs::Registry::instance().restore_counter(name, r.u64());
    }
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionNet);
    net_.load_state(r);
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionEngine);
    t_ = Seconds{r.f64()};
    epoch_index_ = r.i64();
    solve_failures_ = r.i64();
    rebalances_ = r.i64();
    if (r.size(1) != estimate_valid_.size())
      throw state::Error("FleetEngine: estimate mask size mismatch");
    for (std::uint8_t& v : estimate_valid_) v = r.u8();
    const auto load_sized = [&](std::vector<double>& v, const char* what) {
      if (r.size(8) != v.size())
        throw state::Error(std::string("FleetEngine: hot array size mismatch: ") +
                           what);
      for (double& x : v) x = r.f64();
    };
    load_sized(hot_.mean_velocity_mps, "mean_velocity");
    load_sized(hot_.point_velocity_mps, "point_velocity");
    load_sized(hot_.pressure_pa, "pressure");
    load_sized(hot_.temperature_k, "temperature");
    load_sized(hot_.t_s, "t_s");
    load_sized(hot_.bridge_voltage, "bridge_voltage");
    load_sized(hot_.filtered_voltage, "filtered_voltage");
    load_sized(hot_.estimate_mps, "estimate");
    if (r.size(1) != hot_.direction.size())
      throw state::Error("FleetEngine: hot array size mismatch: direction");
    for (std::int8_t& d : hot_.direction) d = static_cast<std::int8_t>(r.u8());
    if (r.size(1) != hot_.has_sample.size())
      throw state::Error("FleetEngine: hot array size mismatch: has_sample");
    for (std::uint8_t& h : hot_.has_sample) h = r.u8();
    load_sized(hot_.cost_ewma_s, "cost_ewma");
    r.expect_end();
  }
  {
    state::Reader r = ck.section(kSectionNodes);
    if (r.size(1) != nodes_.size())
      throw state::Error("FleetEngine: checkpoint node count mismatch");
    for (auto& node : nodes_) node->load_state(r);
    r.expect_end();
  }
}

void FleetEngine::restore(std::span<const std::uint8_t> image) {
  const state::CheckpointReader ck{image};
  read_checkpoint(ck);
}

FleetReport FleetEngine::report() const {
  return build_report(net_, nodes_, t_.value());
}

std::vector<double> FleetEngine::latest_estimates() const {
  std::vector<double> estimates;
  estimates.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    estimates.push_back(hot_.has_sample[i] != 0 ? hot_.estimate_mps[i] : 0.0);
  return estimates;
}

std::size_t MaskedEstimates::valid_count() const {
  std::size_t n = 0;
  for (const std::uint8_t v : valid) n += (v != 0) ? 1 : 0;
  return n;
}

MaskedEstimates FleetEngine::latest_estimates_masked() const {
  MaskedEstimates out;
  out.values.reserve(nodes_.size());
  out.valid.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const bool in_service = estimate_valid_[i] != 0;
    const bool has_sample = hot_.has_sample[i] != 0;
    const bool ok = in_service && has_sample;
    // Invalid entries are pinned to 0.0 — never the stale pre-fault sample.
    out.values.push_back(ok ? hot_.estimate_mps[i] : 0.0);
    out.valid.push_back(ok ? 1 : 0);
  }
  return out;
}

std::optional<TraceSample> FleetEngine::latest_sample_view(
    std::size_t i) const {
  if (hot_.has_sample[i] == 0) return std::nullopt;
  TraceSample s;
  s.t_s = hot_.t_s[i];
  s.bridge_voltage = hot_.bridge_voltage[i];
  s.filtered_voltage = hot_.filtered_voltage[i];
  s.estimate_mps = hot_.estimate_mps[i];
  s.true_mean_mps = hot_.mean_velocity_mps[i];
  s.direction = hot_.direction[i];
  return s;
}

void FleetEngine::set_estimate_valid(std::size_t i, bool valid) {
  estimate_valid_[i] = valid ? 1 : 0;
}

}  // namespace aqua::fleet
