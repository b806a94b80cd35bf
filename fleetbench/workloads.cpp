#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analog/dac.hpp"
#include "core/rig.hpp"
#include "fault/campaign.hpp"
#include "fleet/supervisor.hpp"
#include "obs/metrics.hpp"
#include "phys/fluid.hpp"
#include "simd/channel_batch.hpp"
#include "simd/lanes.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

namespace fleetbench {

using namespace aqua;
using util::Seconds;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kPipesPerDistrict = 32;
// Every sensor carries the fleet-wide nominal King fit (no per-sensor sweep).
const cta::KingFit kSharedFit{0.9, 1.1, 0.5};
constexpr double kCommissionSettleS = 0.25;
constexpr double kFullScaleMps = 2.5;
constexpr double kGravity = 9.80665;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Reservoir feeding four radial chains of tapered mains (32 pipes), the
// district of bench/bench_fleet.cpp; larger fleets replicate it, so each copy
// converges exactly like the original and solve cost grows with the copies.
void add_district(hydro::WaterNetwork& net) {
  const auto res = net.add_reservoir(45.0);
  const auto hub = net.add_junction(2.0, 0.002);
  const auto first_pipe = net.pipe_count();
  net.add_pipe(res, hub, util::metres(200.0), util::millimetres(250.0));
  for (int chain = 0; chain < 4; ++chain) {
    auto prev = hub;
    for (int k = 0; k < 8; ++k) {
      if (net.pipe_count() - first_pipe >= kPipesPerDistrict) break;
      const auto next = net.add_junction(1.5 - 0.1 * k, 0.002);
      net.add_pipe(prev, next, util::metres(250.0),
                   util::millimetres(150.0 - 14.0 * k));
      prev = next;
    }
  }
}

fleet::SupervisorConfig supervisor_config() {
  fleet::SupervisorConfig cfg;
  // examples/fault_campaign's cadence: a dead channel is caught well inside
  // the shortest (4 s) event window.
  cfg.health.stuck_count = 6;
  return cfg;
}

// One set-up: everything from network construction to the first epoch. The
// engine keeps a reference to `net`, so a Fleet never moves (heap only).
struct Fleet {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
  std::vector<double> base_demands;  // before the engine scales them
  hydro::WaterNetwork pristine;      // traced run: the replay's start
  fleet::FleetConfig config;
  fault::FaultCampaign campaign;
  std::unique_ptr<fleet::FleetEngine> engine;
  std::unique_ptr<fleet::FleetSupervisor> supervisor;
  std::unique_ptr<fault::CampaignRunner> runner;
  std::unique_ptr<fault::FaultInjector> injector;
};

std::unique_ptr<Fleet> set_up(const WorkloadSpec& spec,
                              const RunOptions& options,
                              util::ThreadPool* pool, SpanLog* log) {
  auto f = std::make_unique<Fleet>();
  f->net = build_network(spec);
  f->placements = sensor_placements(spec, f->net);
  f->base_demands.resize(f->net.node_count());
  for (std::size_t n = 0; n < f->net.node_count(); ++n)
    f->base_demands[n] = f->net.node_demand(n);
  if (log != nullptr) f->pristine = f->net;
  f->config = fleet_config(spec, options.seed);
  {
    ScopedSpan span(log, "fleet.FleetEngine", "fleet");
    f->engine = std::make_unique<fleet::FleetEngine>(f->net, f->placements,
                                                     f->config);
  }
  f->engine->set_shared_fit(kSharedFit);
  {
    ScopedSpan span(log, "fleet.commission", "fleet");
    f->engine->commission(Seconds{kCommissionSettleS}, pool);
  }
  if (spec.fault_events > 0) {
    f->campaign = fault::FaultCampaign::random(
        options.seed, spec.fault_events, f->engine->size(), Seconds{0.5},
        Seconds{0.6 * spec.epoch_s * static_cast<double>(spec.epochs)},
        Seconds{4.0}, Seconds{8.0});
    {
      ScopedSpan span(log, "fleet.FleetSupervisor", "fleet");
      f->supervisor = std::make_unique<fleet::FleetSupervisor>(
          *f->engine, supervisor_config());
    }
    f->runner = std::make_unique<fault::CampaignRunner>(
        *f->engine, *f->supervisor, f->campaign,
        Seconds{spec.epoch_s * static_cast<double>(spec.epochs)});
    if (log != nullptr)
      f->injector =
          std::make_unique<fault::FaultInjector>(*f->engine, f->campaign);
  }
  return f;
}

std::unique_ptr<util::ThreadPool> make_pool(unsigned workers) {
  if (workers == 0) return nullptr;
  return std::make_unique<util::ThreadPool>(workers);
}

void score_epoch(const fleet::FleetEngine& engine, bool solve_failed,
                 Accuracy& acc) {
  for (std::size_t i = 0; i < engine.size(); ++i) {
    ++acc.attempted;
    const std::optional<fleet::TraceSample> s = engine.node(i).latest_sample();
    const bool in_service = engine.estimate_valid(i);
    if (solve_failed || !s ||
        (in_service && !std::isfinite(s->estimate_mps))) {
      ++acc.failed;
      continue;
    }
    if (!in_service) continue;
    const double err = s->estimate_mps - s->true_mean_mps;
    acc.sq_err += err * err;
    ++acc.valid;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double sensor_step_wall_sum() {
  for (const obs::HistogramSnapshot& h : obs::Registry::instance().snapshot().histograms)
    if (h.name == "fleet.sensor_step_wall_seconds") return h.sum;
  return 0.0;
}

// ---------------------------------------------------------------------------
// Sensor-stack probes: standalone SensorNodes built with the workload's
// config and commissioned at one of its pipe snapshots. The engine's own
// nodes are never touched, so the probes cannot perturb the checksum.

constexpr std::size_t kProbeNodes = 16;

// The engine's own epoch snapshot (FleetEngine::pipe_state_for) is private;
// this mirrors its arithmetic so a probe node sees the pipe as a fleet node
// would.
fleet::PipeState pipe_state(const hydro::WaterNetwork& net,
                            const fleet::FleetConfig& cfg,
                            const fleet::SensorNode& node) {
  const auto pipe = node.placement().pipe;
  fleet::PipeState state;
  state.temperature = cfg.water_temperature;
  state.mean_velocity_mps = net.pipe_velocity(pipe).value();
  state.point_velocity_mps =
      state.mean_velocity_mps *
      node.profile_factor_at(state.mean_velocity_mps, state.temperature);
  auto tap = net.pipe_from(pipe);
  if (net.node_is_reservoir(tap)) tap = net.pipe_to(pipe);
  const double head = net.node_is_reservoir(tap)
                          ? 0.0
                          : std::max(0.0, net.node_pressure_head(tap));
  const double rho = phys::water_properties(state.temperature).density;
  state.pressure =
      util::Pascals{cfg.atmospheric.value() + rho * kGravity * head};
  return state;
}

maf::Environment environment(const fleet::PipeState& state) {
  maf::Environment env;
  env.speed = util::metres_per_second(state.point_velocity_mps);
  env.fluid_temperature = state.temperature;
  env.pressure = state.pressure;
  return env;
}

void align_frame(fleet::SensorNode& node, const maf::Environment& env) {
  while (node.anemometer().tick_phase() != 0) node.anemometer().tick(env);
}

// Median over `blocks` of the wall time of `calls` body() calls, divided by
// `calls * units` (units = sensors, channels or dies one call covers).
template <class F>
double per_unit_median_s(int blocks, int calls, double units, F&& body) {
  std::vector<double> per_unit;
  for (int b = 0; b < blocks; ++b) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) body();
    per_unit.push_back(seconds_since(t0) / (calls * units));
  }
  return quantile(per_unit, 0.5);
}

void run_probes(const Fleet& f, SpanLog& log,
                std::map<std::string, double>& m) {
  const fleet::FleetConfig& cfg = f.config;
  std::vector<std::unique_ptr<fleet::SensorNode>> nodes;
  std::vector<fleet::PipeState> states;
  for (std::size_t k = 0; k < kProbeNodes; ++k) {
    const fleet::SensorPlacement placement =
        f.placements[k % f.placements.size()];
    nodes.push_back(std::make_unique<fleet::SensorNode>(
        k, placement, cfg.sensor, f.net.pipe_diameter(placement.pipe),
        util::Rng::stream(cfg.root_seed, k)));
    nodes.back()->set_fit(kSharedFit, cfg.water_temperature);
    states.push_back(pipe_state(f.net, cfg, *nodes.back()));
    nodes.back()->commission(states.back(), Seconds{kCommissionSettleS});
  }
  fleet::SensorNode& node = *nodes[0];
  const maf::Environment env = environment(states[0]);
  cta::CtaAnemometer& loop = node.anemometer();
  const Seconds dt = loop.tick_period();
  const int decimation = cfg.sensor.isif.channel.decimation;
  m["sensor.frames_per_epoch"] =
      cfg.epoch.value() / (dt.value() * decimation);

  {
    ScopedSpan span(&log, "sensor.advance", "sensor", 8);
    m["sensor.advance_us"] = 1e6 * per_unit_median_s(8, 1, 1.0, [&] {
      node.advance(states[0], cfg.epoch);
    });
  }
  align_frame(node, env);
  {
    ScopedSpan span(&log, "core.tick_frame", "core", 10 * 100);
    m["core.tick_frame_us"] = 1e6 * per_unit_median_s(10, 100, 1.0, [&] {
      loop.tick_frame(env);
    });
  }
  const std::vector<double> diffs(loop.staged_diff_a().begin(),
                                  loop.staged_diff_a().end());
  isif::InputChannel& channel = loop.platform().channel(0);
  {
    ScopedSpan span(&log, "isif.process_frame", "isif", 10 * 1000);
    m["isif.process_frame_ns"] = 1e9 * per_unit_median_s(10, 1000, 1.0, [&] {
      (void)channel.process_frame(diffs, env.fluid_temperature);
    });
  }
  {
    ScopedSpan span(&log, "maf.die_step", "maf", 10 * 20000);
    maf::MafDie& die = loop.die();
    m["maf.die_step_ns"] = 1e9 * per_unit_median_s(10, 20000, 1.0, [&] {
      die.step(dt, env);
    });
  }
  {
    ScopedSpan span(&log, "analog.dac_step", "analog", 10 * 100000);
    analog::ThermometerDac dac(cfg.sensor.isif.dac12,
                               util::Rng::stream(cfg.root_seed, 1u << 20));
    dac.write_code(dac.max_code() / 2);
    double sink = 0.0;
    m["analog.dac_step_ns"] = 1e9 * per_unit_median_s(10, 100000, 1.0, [&] {
      sink += dac.step(dt).value();
    });
    if (!std::isfinite(sink))
      throw std::runtime_error("DAC probe produced a non-finite output");
  }

  // Batch probes over the whole probe group.
  for (std::size_t k = 0; k < nodes.size(); ++k)
    align_frame(*nodes[k], environment(states[k]));
  std::vector<fleet::SensorNode*> group;
  for (const auto& n : nodes) group.push_back(n.get());
  const double g = static_cast<double>(group.size());
  {
    ScopedSpan span(&log, "sensor.advance_group", "sensor", 4);
    m["sensor.group_advance_us"] = 1e6 * per_unit_median_s(4, 1, g, [&] {
      for (std::size_t k = 0; k < nodes.size(); ++k)
        align_frame(*nodes[k], environment(states[k]));
      fleet::SensorNode::advance_group(group, states, cfg.epoch,
                                       cfg.batch_lane_width);
    });
  }
  for (std::size_t k = 0; k < nodes.size(); ++k)
    align_frame(*nodes[k], environment(states[k]));
  std::vector<simd::ChannelFrameInput> inputs;
  std::vector<isif::ChannelSample> outputs(group.size());
  std::vector<phys::ThermalNetwork*> nets;
  for (fleet::SensorNode* n : group) {
    inputs.push_back(simd::ChannelFrameInput{
        &n->anemometer().platform().channel(0), diffs, env.fluid_temperature});
    nets.push_back(&n->anemometer().die().thermal_network());
  }
  {
    ScopedSpan span(&log, "simd.process_frames", "simd", 10 * 200);
    m["simd.process_frames_ns"] = 1e9 * per_unit_median_s(10, 200, g, [&] {
      simd::ChannelBatch::process_frames(inputs, outputs,
                                         cfg.batch_lane_width);
    });
  }
  {
    ScopedSpan span(&log, "phys.step_batch", "phys", 10 * 2000);
    m["phys.step_batch_ns"] = 1e9 * per_unit_median_s(10, 2000, g, [&] {
      phys::ThermalNetwork::step_batch(nets, dt);
    });
  }
}

}  // namespace

// ---------------------------------------------------------------------------

std::vector<WorkloadSpec> workloads() {
  using fleet::ChannelExecution;
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "district-1k";
    w.districts = 32;
    w.sensor_stride = 1;
    w.execution = ChannelExecution::kScalar;
    w.epoch_s = 0.1;
    w.diurnal_day_s = 8.0;
    w.epochs = 40;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "campaign-256-batch";
    w.districts = 8;
    w.sensor_stride = 1;
    w.execution = ChannelExecution::kSimdBatch;
    w.epoch_s = 0.25;
    w.epochs = 80;
    w.fault_events = 13;  // about 1 sensor in 20
    w.checkpoint_every = 10;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "city-1.5k";
    w.districts = 48;
    w.sensor_stride = 8;
    w.execution = ChannelExecution::kScalar;
    w.epoch_s = 0.1;
    w.epochs = 40;
    w.diurnal_day_s = w.epoch_s * static_cast<double>(w.epochs);
    out.push_back(w);
  }
  return out;
}

WorkloadSpec workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

fleet::FleetConfig fleet_config(const WorkloadSpec& spec, std::uint64_t seed) {
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = seed;
  cfg.execution = spec.execution;
  cfg.epoch = Seconds{spec.epoch_s};
  if (spec.diurnal_day_s > 0.0)
    cfg.demand_factor =
        fleet::diurnal_demand_pattern(Seconds{spec.diurnal_day_s});
  return cfg;
}

hydro::WaterNetwork build_network(const WorkloadSpec& spec) {
  hydro::WaterNetwork net;
  for (std::size_t d = 0; d < spec.districts; ++d) add_district(net);
  return net;
}

std::vector<fleet::SensorPlacement> sensor_placements(
    const WorkloadSpec& spec, const hydro::WaterNetwork& net) {
  std::vector<fleet::SensorPlacement> placements;
  for (hydro::WaterNetwork::PipeId p = 0; p < net.pipe_count();
       p += spec.sensor_stride)
    placements.push_back(fleet::SensorPlacement{p, 0.0});
  return placements;
}

HydroReplay::HydroReplay(const hydro::WaterNetwork& start,
                         std::vector<double> base_demands,
                         const fleet::FleetConfig& config)
    : net_(start),
      base_demands_(std::move(base_demands)),
      factor_(config.demand_factor),
      temperature_(config.water_temperature) {}

bool HydroReplay::solve_at(double t_s) {
  // The engine's own arithmetic: base demand × factor, junctions only.
  const double factor = factor_.at(Seconds{t_s});
  for (std::size_t n = 0; n < net_.node_count(); ++n)
    if (!net_.node_is_reservoir(n)) net_.set_demand(n, base_demands_[n] * factor);
  return net_.solve(temperature_);
}

bool HydroReplay::matches(const hydro::WaterNetwork& engine_net) const {
  if (engine_net.node_count() != net_.node_count() ||
      engine_net.pipe_count() != net_.pipe_count())
    return false;
  for (std::size_t n = 0; n < net_.node_count(); ++n)
    if (std::bit_cast<std::uint64_t>(net_.node_head(n)) !=
        std::bit_cast<std::uint64_t>(engine_net.node_head(n)))
      return false;
  for (std::size_t p = 0; p < net_.pipe_count(); ++p)
    if (std::bit_cast<std::uint64_t>(net_.pipe_flow(p)) !=
        std::bit_cast<std::uint64_t>(engine_net.pipe_flow(p)))
      return false;
  return true;
}

double Accuracy::rmse_pct_fs() const {
  if (valid == 0) return 0.0;
  return 100.0 * std::sqrt(sq_err / static_cast<double>(valid)) /
         kFullScaleMps;
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(CPU_COUNT(&set));
}

BoxRecord box_record(unsigned pool_threads) {
  BoxRecord b;
  b.nproc = available_cpus();
  b.hardware_concurrency = std::thread::hardware_concurrency();
  b.pool_threads = pool_threads;
  b.lane_width = simd::active_lane_width();
#if defined(__clang__)
  b.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  b.compiler = "gcc " __VERSION__;
#else
  b.compiler = "unknown";
#endif
  b.build_type = FLEETBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  b.optimized = b.build_type == "Release" || b.build_type == "RelWithDebInfo";
#endif
  const char* level = std::getenv("AQUA_LOG_LEVEL");
  b.log_level = level != nullptr ? level : "";
  return b;
}

std::size_t shards_used(const fleet::ShardPlan& plan) {
  std::size_t used = 0;
  for (const auto& shard : plan.shards) used += shard.empty() ? 0 : 1;
  return used;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Tail tail_of(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  t.percentile = 75;
  for (const int p : {99, 90, 75}) {
    const double beyond = static_cast<double>(values.size()) * (100 - p) / 100.0;
    if (beyond >= 10.0) {
      t.percentile = p;
      break;
    }
  }
  t.value = quantile(values, t.percentile / 100.0);
  return t;
}

// ---------------------------------------------------------------------------

TimedResult run_timed(const WorkloadSpec& spec, const RunOptions& options) {
  TimedResult r;
  std::unique_ptr<util::ThreadPool> pool = make_pool(options.workers);
  std::unique_ptr<Fleet> f;
  for (int k = 0; k < kTimedSetups; ++k) {
    f.reset();  // free the previous fleet before timing the next set-up
    const auto t0 = Clock::now();
    f = set_up(spec, options, pool.get(), nullptr);
    r.setup_s.push_back(seconds_since(t0));
  }
  fleet::FleetEngine& engine = *f->engine;
  r.sensors = engine.size();
  r.sim_s_per_epoch = spec.epoch_s;

  std::optional<state::CheckpointManager> checkpoints;
  if (spec.checkpoint_every > 0)
    checkpoints.emplace(options.scratch_dir, spec.name, 2);

  // Every 8th epoch: the network as it stood before the epoch, the engine's
  // clock, and the network after it, for the replay check after the loop.
  struct ReplayPoint {
    hydro::WaterNetwork before;
    double t_s;
    hydro::WaterNetwork after;
  };
  std::vector<ReplayPoint> replay_points;
  hydro::WaterNetwork before_epoch;
  {
    std::optional<fleet::FleetEngine::TeamSession> team;
    if (pool) team.emplace(engine, pool.get());
    for (long long e = 0; e < spec.epochs; ++e) {
      before_epoch = engine.network();
      const double t_epoch = engine.now().value();
      const long long failures_before = engine.solve_failures();

      const auto t0 = Clock::now();
      if (f->runner) {
        f->runner->step(pool.get());
        if (spec.checkpoint_every > 0 && (e + 1) % spec.checkpoint_every == 0) {
          checkpoints->write(static_cast<std::uint64_t>(f->runner->epoch()),
                             f->runner->checkpoint());
          ++r.checkpoints;
        }
      } else {
        engine.step_epoch(pool.get());
      }
      r.epoch_s.push_back(seconds_since(t0));

      score_epoch(engine, engine.solve_failures() > failures_before,
                  r.accuracy);
      if (e % 8 == 7)
        replay_points.push_back({before_epoch, t_epoch, engine.network()});
    }
  }
  r.checksum = fault::fleet_trace_checksum(engine);
  r.solve_failures = engine.solve_failures();

  // Each sampled solve, replayed on a copy of the network as it stood before
  // that epoch, must reproduce the engine's heads and flows exactly.
  for (const ReplayPoint& p : replay_points) {
    HydroReplay replay(p.before, f->base_demands, f->config);
    if (!replay.solve_at(p.t_s) || !replay.matches(p.after)) {
      r.errors.push_back("hydro replay differs at t = " + std::to_string(p.t_s) + " s");
      break;
    }
  }
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

TracedResult run_traced(const WorkloadSpec& spec, const RunOptions& options) {
  TracedResult r;
  SpanLog& log = r.spans;
  std::map<std::string, double>& m = r.metrics;
  std::unique_ptr<util::ThreadPool> pool = make_pool(options.workers);
  const unsigned workers = std::max(1u, options.workers);

  const int root = log.open("bench.traced_run", "bench");
  const double rss_before = current_rss_kb();
  std::unique_ptr<Fleet> f = set_up(spec, options, pool.get(), &log);
  fleet::FleetEngine& engine = *f->engine;
  r.sensors = engine.size();
  m["fleet.rss_per_sensor_kb"] =
      (current_rss_kb() - rss_before) / static_cast<double>(engine.size());

  HydroReplay replay(f->pristine, f->base_demands, f->config);
  {
    ScopedSpan span(&log, "hydro.cold_solve", "hydro");
    if (!replay.solve_at(0.0)) r.errors.push_back("replayed cold solve failed");
  }
  m["hydro.cold_solve_s"] = log.durations("hydro.cold_solve").back();
  if (!replay.matches(engine.network()))
    r.errors.push_back("replayed cold solve differs from the engine's");

  std::optional<state::CheckpointManager> checkpoints;
  if (spec.checkpoint_every > 0)
    checkpoints.emplace(options.scratch_dir, spec.name + "-traced", 2);

  std::vector<double> epoch_wall, solve_s, epoch_minus_solve, cost_ratio;
  std::size_t min_shards = SIZE_MAX;
  long long fallback_epochs = 0;
  double checkpoint_bytes = 0.0;
  bool replay_ok = true;
  Accuracy acc;
  const double busy_before = sensor_step_wall_sum();
  {
    std::optional<fleet::FleetEngine::TeamSession> team;
    if (pool) team.emplace(engine, pool.get());
    for (long long e = 0; e < spec.epochs; ++e) {
      if (spec.execution == fleet::ChannelExecution::kSimdBatch)
        for (std::size_t i = 0; i < engine.size(); ++i)
          fallback_epochs += engine.node(i).batch_eligible() ? 0 : 1;
      const double t = engine.now().value();
      const long long failures_before = engine.solve_failures();
      {
        ScopedSpan span(&log, "hydro.solve", "hydro");
        if (!replay.solve_at(t)) r.errors.push_back("replayed solve failed");
      }
      solve_s.push_back(log.durations("hydro.solve").back());

      // The sequence CampaignRunner::step runs: inject, step, supervise.
      const double epoch_start = log.now();
      if (f->injector) {
        ScopedSpan span(&log, "fault.update", "fault");
        f->injector->update(engine.now());
      }
      {
        ScopedSpan span(&log, "fleet.step_epoch", "fleet");
        engine.step_epoch(pool.get());
      }
      if (f->supervisor) {
        ScopedSpan span(&log, "fleet.supervisor.poll", "fleet");
        f->supervisor->poll();
      }
      if (spec.checkpoint_every > 0 && (e + 1) % spec.checkpoint_every == 0) {
        // The runner never steps here (the loop above drives its pieces),
        // but its image has the live engine and supervisor sections and
        // the same layout, so serialising it costs what the timed run pays.
        std::vector<std::uint8_t> image;
        {
          ScopedSpan span(&log, "state.checkpoint_serialize", "state");
          image = f->runner->checkpoint();
        }
        {
          ScopedSpan span(&log, "state.checkpoint_write", "state");
          checkpoints->write(static_cast<std::uint64_t>(e + 1), image);
        }
        checkpoint_bytes = static_cast<double>(image.size());
      }
      epoch_wall.push_back(log.now() - epoch_start);
      epoch_minus_solve.push_back(epoch_wall.back() - solve_s.back());

      if (!replay.matches(engine.network()) && replay_ok) {
        replay_ok = false;
        r.errors.push_back("hydro replay differs from epoch " +
                           std::to_string(e));
      }
      const fleet::ShardPlan& plan = engine.shard_plan();
      min_shards = std::min(min_shards, shards_used(plan));
      std::vector<double> costs(engine.size());
      for (std::size_t i = 0; i < engine.size(); ++i)
        costs[i] = engine.cost_estimate(i);
      const std::vector<double> shard_cost = fleet::shard_costs(plan, costs);
      const double mean_cost = shard_cost.empty() ? 0.0
                                   : sum(shard_cost) / static_cast<double>(shard_cost.size());
      if (mean_cost > 0.0)
        cost_ratio.push_back(
            *std::max_element(shard_cost.begin(), shard_cost.end()) /
            mean_cost);
      score_epoch(engine, engine.solve_failures() > failures_before, acc);
    }
  }
  const double busy_s = sensor_step_wall_sum() - busy_before;
  r.checksum = fault::fleet_trace_checksum(engine);

  run_probes(*f, log, m);
  log.close(root);
  r.wall_s = log.durations("bench.traced_run").back();

  const double loop_wall = sum(epoch_wall);
  r.sensor_sim_s_per_wall_s = static_cast<double>(engine.size()) *
                              spec.epoch_s *
                              static_cast<double>(spec.epochs) / loop_wall;
  const Tail solve_tail = tail_of(solve_s);
  m["hydro.solve_ms"] = 1e3 * quantile(solve_s, 0.5);
  m["hydro.solve_tail_ms"] = 1e3 * solve_tail.value;
  r.details["hydro.solve_tail_percentile"] = solve_tail.percentile;
  r.details["hydro.solve_samples"] = static_cast<double>(solve_tail.samples);
  m["hydro.solve_share"] = sum(solve_s) / loop_wall;
  m["hydro.solve_failures"] = static_cast<double>(engine.solve_failures());

  m["fleet.shards_used"] =
      static_cast<double>(min_shards == SIZE_MAX ? 0 : min_shards);
  r.details["fleet.shards_used_final"] =
      static_cast<double>(shards_used(engine.shard_plan()));
  m["fleet.shard_cost_max_over_mean"] = quantile(cost_ratio, 0.5);
  m["fleet.worker_busy_share"] = busy_s / (workers * loop_wall);
  m["fleet.epoch_minus_solve_ms"] = 1e3 * quantile(epoch_minus_solve, 0.5);

  m["sensor.batch_fallback_share"] =
      static_cast<double>(fallback_epochs) /
      static_cast<double>(engine.size() * static_cast<std::size_t>(spec.epochs));

  const auto p50_of = [&log](const std::string& name, double scale) {
    const std::vector<double> d = log.durations(name);
    return d.empty() ? 0.0 : scale * quantile(d, 0.5);
  };
  m["supervisor.poll_ms"] = p50_of("fleet.supervisor.poll", 1e3);
  m["supervisor.recommissions"] =
      f->supervisor ? static_cast<double>(
                          f->supervisor->stats().recommission_attempts)
                    : 0.0;
  m["supervisor.quarantines"] =
      f->supervisor ? static_cast<double>(f->supervisor->stats().quarantines)
                    : 0.0;
  m["fault.update_us"] = p50_of("fault.update", 1e6);
  m["state.checkpoint_serialize_ms"] = p50_of("state.checkpoint_serialize", 1e3);
  m["state.checkpoint_write_ms"] = p50_of("state.checkpoint_write", 1e3);
  m["state.checkpoint_bytes"] = checkpoint_bytes;

  for (const auto& [layer, self_s] : log.self_time_by_layer())
    m[layer + ".self_s"] = self_s;

  r.details["estimate_rmse_pctfs"] = acc.rmse_pct_fs();
  r.details["failed_sensor_epochs"] = static_cast<double>(acc.failed);
  return r;
}

}  // namespace fleetbench
