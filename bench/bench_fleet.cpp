// bench_fleet — fleet co-simulation throughput, serial vs the thread pool's
// parked team: 32 CTA sensors on a 32-pipe district, each integrating its ΣΔ/CIC/PI
// loop against the diurnal network solution. Reports sensors×sim-seconds per
// wall second for each mode plus a bitwise trace checksum per run — identical
// checksums across all modes are the determinism proof (same root seed ⇒
// bit-identical traces at any thread count).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analog/amplifier.hpp"
#include "common.hpp"
#include "fault/campaign.hpp"
#include "fleet/fleet.hpp"
#include "isif/channel.hpp"
#include "maf/die.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/channel_batch.hpp"
#include "simd/lanes.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"

#include <unistd.h>

namespace {

using namespace aqua;
using util::Seconds;

struct District {
  hydro::WaterNetwork net;
  std::vector<fleet::SensorPlacement> placements;
};

// Reservoir feeding four radial chains of eight pipes each (32 pipes, one
// sensor per pipe) — the "widely diffused" deployment of paper §6. Larger
// fleets replicate this proven district: each replica is hydraulically
// independent, so solve cost stays linear and every replica converges exactly
// like the original (no giant-hub head-loss pathology).
District make_district(std::size_t replicas = 1) {
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
        // Tapered mains: diameters shrink with the remaining demand so the
        // velocity stays turbulent even at the 0.3× night factor (the
        // solver's successive linearisation stalls in the transition regime).
        const auto next = d.net.add_junction(1.5 - 0.1 * k, 0.002);
        d.net.add_pipe(prev, next, util::metres(250.0),
                       util::millimetres(150.0 - 14.0 * k));
        prev = next;
      }
    }
  }
  for (hydro::WaterNetwork::PipeId p = 0; p < d.net.pipe_count(); ++p)
    d.placements.push_back(fleet::SensorPlacement{p, 0.0});
  return d;
}

constexpr std::size_t kSensorsPerReplica = 32;

struct RunResult {
  double wall_s = 0.0;
  double throughput = 0.0;  // sensors × sim-seconds per wall second
  std::uint64_t checksum = 0;
  std::size_t sensors = 0;
  /// Resident-set growth from before the engine was built to after its last
  /// epoch, with the engine still alive (scaling-sweep runs only).
  double rss_growth_bytes = 0.0;
};

// Resident bytes of this process now (not the peak), from /proc/self/statm.
double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

// --- fleet scaling sweep ----------------------------------------------------
// The sharded epoch loop's scaling proof: a ~1k-sensor fleet run serially and
// on pools of 2/4/8, checksum-compared, plus a fleet-size completion run
// (10k by default). Sizes are env-tunable: AQUA_FLEET_SCALE_SENSORS for the
// sweep, AQUA_FLEET_XL_SENSORS for the completion run (0 skips it). Each mode
// runs kScalingPasses times, the modes taking turns, and keeps its fastest
// run: a noisy neighbour slowing one run on a shared box then moves neither
// side of the gated ratio.
constexpr int kScalingPasses = 3;

struct ScalingReport {
  std::size_t sensors = 0;
  long long epochs = 0;
  bool deterministic = true;
  /// Hardware-aware scaling efficiency: max over k ∈ {2, 4} of
  /// speedup(pool_k) / min(k, hardware_threads), each side the best of
  /// kScalingPasses runs. Ideal is 1.0 on any machine — a 1-core box expects
  /// speedup 1 from k threads, a 2-core box expects 2 from k=2 — so a fixed
  /// CI floor (0.8) works everywhere, including hyperthreaded runners (k=2
  /// uses real cores).
  double efficiency = 0.0;
  double pool8_over_serial = 0.0;
  /// Resident bytes per sensor: the RSS growth across building and stepping
  /// the first (serial) sweep fleet, over its sensor count. Gated <= 48 KiB.
  double bytes_per_sensor = 0.0;
  std::vector<std::pair<std::string, RunResult>> modes;
  bool xl_ran = false;
  std::size_t xl_sensors = 0;
  long long xl_epochs = 0;
  double xl_wall_s = 0.0;
  std::uint64_t xl_checksum = 0;
};

std::size_t env_sensors(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long long n = std::atoll(v);
  return n <= 0 ? 0 : static_cast<std::size_t>(n);
}

// One scaling-sweep run: `threads` == 0 is serial. Skips commissioning (the
// sweep times the epoch loop, and a 10k settle would dominate) and uses a
// short epoch so the whole sweep stays in budget; the determinism contract is
// load-bearing at any epoch length.
RunResult run_scaling_mode(unsigned threads, std::size_t replicas,
                           double epoch_s, long long epochs) {
  District d = make_district(replicas);
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 42;
  cfg.epoch = Seconds{epoch_s};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
  const double rss_before = current_rss_bytes();
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(Seconds{epoch_s * static_cast<double>(epochs)}, pool.get());
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.rss_growth_bytes = current_rss_bytes() - rss_before;
  r.sensors = engine.size();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.throughput = static_cast<double>(engine.size()) * epoch_s *
                 static_cast<double>(epochs) / r.wall_s;
  r.checksum = fault::fleet_trace_checksum(engine);
  return r;
}

ScalingReport run_scaling_sweep(unsigned hw) {
  ScalingReport rep;
  const std::size_t target = env_sensors("AQUA_FLEET_SCALE_SENSORS", 1024);
  const std::size_t replicas =
      std::max<std::size_t>(1, (target + kSensorsPerReplica - 1) /
                                   kSensorsPerReplica);
  rep.sensors = replicas * kSensorsPerReplica;
  rep.epochs = 4;
  const double epoch_s = 0.1;

  std::printf("\nfleet scaling sweep: %zu sensors, %lld epochs of %.2f s, "
              "best of %d alternating runs per mode\n",
              rep.sensors, rep.epochs, epoch_s, kScalingPasses);
  std::printf("%-12s %10s %16s %18s\n", "mode", "wall [s]", "sensors*sims/s",
              "trace checksum");

  constexpr unsigned kThreads[] = {0u, 2u, 4u, 8u};  // 0 = serial
  std::vector<RunResult> best(std::size(kThreads));
  std::uint64_t reference = 0;
  for (int pass = 0; pass < kScalingPasses; ++pass) {
    for (std::size_t m = 0; m < std::size(kThreads); ++m) {
      const RunResult r =
          run_scaling_mode(kThreads[m], replicas, epoch_s, rep.epochs);
      if (pass == 0 && m == 0) {
        reference = r.checksum;
        rep.bytes_per_sensor =
            r.rss_growth_bytes / static_cast<double>(r.sensors);
      }
      rep.deterministic = rep.deterministic && r.checksum == reference;
      if (r.throughput > best[m].throughput) best[m] = r;
    }
  }

  const RunResult& serial = best[0];
  for (std::size_t m = 0; m < std::size(kThreads); ++m) {
    const unsigned threads = kThreads[m];
    const RunResult& r = best[m];
    char mode[32];
    if (threads == 0)
      std::snprintf(mode, sizeof mode, "serial");
    else
      std::snprintf(mode, sizeof mode, "pool(%u)", threads);
    rep.modes.emplace_back(mode, r);

    const double speedup =
        serial.throughput > 0.0 ? r.throughput / serial.throughput : 0.0;
    if (threads == 8u) rep.pool8_over_serial = speedup;
    if (threads == 2u || threads == 4u) {
      const double ideal = std::min<double>(threads, std::max(1u, hw));
      rep.efficiency = std::max(rep.efficiency, speedup / ideal);
    }
    std::printf("%-12s %10.3f %16.1f %18llx%s\n", mode, r.wall_s,
                r.throughput, static_cast<unsigned long long>(r.checksum),
                r.checksum == serial.checksum ? "" : "  << MISMATCH");
  }
  std::printf("scaling determinism: %s; efficiency %.2f (ideal 1.0, CI floor "
              "0.8), pool(8)/serial %.2fx\n",
              rep.deterministic ? "PASS" : "FAIL", rep.efficiency,
              rep.pool8_over_serial);
  std::printf("memory: %.1f KiB resident per sensor across building and "
              "stepping the serial fleet (CI ceiling 48 KiB)\n",
              rep.bytes_per_sensor / 1024.0);

  const std::size_t xl_target = env_sensors("AQUA_FLEET_XL_SENSORS", 10016);
  if (xl_target > 0) {
    const std::size_t xl_replicas =
        std::max<std::size_t>(1, (xl_target + kSensorsPerReplica - 1) /
                                     kSensorsPerReplica);
    rep.xl_sensors = xl_replicas * kSensorsPerReplica;
    rep.xl_epochs = 2;
    const unsigned threads = std::max(1u, hw);
    std::printf("completion run: %zu sensors on pool(%u) ... ",
                rep.xl_sensors, threads);
    std::fflush(stdout);
    const RunResult xl =
        run_scaling_mode(threads, xl_replicas, epoch_s, rep.xl_epochs);
    rep.xl_ran = true;
    rep.xl_wall_s = xl.wall_s;
    rep.xl_checksum = xl.checksum;
    std::printf("%.1f s wall (%.1f sensors*sims/s), checksum %016llx\n",
                xl.wall_s, xl.throughput,
                static_cast<unsigned long long>(xl.checksum));
  }
  return rep;
}

// --- checkpoint overhead ----------------------------------------------------
// The crash-recovery tax (DESIGN.md §14): the same 32-sensor epoch loop run
// in this process plain and writing a durable checkpoint (serialize + atomic
// temp/fsync/rename) every `interval` epochs, the two taking turns
// kCheckpointPasses times with the fastest run of each side kept. The
// throughput ratio is machine-independent — both sides run seconds apart in
// one binary — and CI floors it at 0.9: a checkpoint cadence of 100 epochs
// may cost at most 10 % of fleet throughput.
constexpr int kCheckpointPasses = 3;

struct CheckpointOverhead {
  long long epochs = 0;
  long long interval = 100;
  std::size_t image_bytes = 0;     // one engine checkpoint image
  double nockpt_sps = 0.0;         // best sensors × sim-s per wall-s, plain
  double ckpt_sps = 0.0;           // best with the checkpoint cadence
  double ratio = 0.0;              // ckpt / nockpt — gated >= 0.9
};

CheckpointOverhead measure_checkpoint_overhead() {
  namespace fs = std::filesystem;
  CheckpointOverhead rep;
  rep.epochs = 200;
  rep.interval = 100;
  const double epoch_s = 0.05;

  const auto run = [&rep, epoch_s](bool checkpointing) {
    District d = make_district();
    fleet::FleetConfig cfg;
    cfg.sensor.isif = cta::coarse_isif_config();
    cfg.sensor.cta.output_cutoff = util::hertz(2.0);
    cfg.root_seed = 42;
    cfg.epoch = Seconds{epoch_s};
    cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
    fleet::FleetEngine engine(d.net, d.placements, cfg);
    engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

    std::optional<state::CheckpointManager> manager;
    std::string dir;
    if (checkpointing) {
      dir = (fs::temp_directory_path() / "aqua_bench_ckpt").string();
      fs::remove_all(dir);
      manager.emplace(dir, "bench", 2);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (long long e = 1; e <= rep.epochs; ++e) {
      engine.step_epoch();
      if (manager && e % rep.interval == 0) {
        const std::vector<std::uint8_t> image = engine.checkpoint();
        rep.image_bytes = image.size();
        manager->write(static_cast<std::uint64_t>(e), image);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (checkpointing) fs::remove_all(dir);
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(engine.size()) * epoch_s *
           static_cast<double>(rep.epochs) / wall;
  };
  for (int pass = 0; pass < kCheckpointPasses; ++pass) {
    rep.nockpt_sps = std::max(rep.nockpt_sps, run(false));
    rep.ckpt_sps = std::max(rep.ckpt_sps, run(true));
  }
  rep.ratio = rep.nockpt_sps > 0.0 ? rep.ckpt_sps / rep.nockpt_sps : 0.0;
  return rep;
}

// --- hydraulic solve scaling ------------------------------------------------
// Warm solves of the replicated district at 1,024 and 10,016 pipes. Identical
// districts converge in identical sweep counts, so the time ratio is the
// per-sweep cost ratio: ~10 for a solve linear in the pipe count, >= 100 for
// a dense elimination. CI gates it at <= 20, a bound no quadratic solve can
// meet on any runner.
struct WarmSolves {
  std::size_t pipes = 0;
  double ms = 0.0;      // mean warm-solve wall time of the fastest round
  double sweeps = 0.0;  // mean sweeps per solve
};

struct HydroScaling {
  WarmSolves small, large;
  double ratio = 0.0;  // large.ms / small.ms — gated <= 20
};

// Three rounds of eight warm solves, each after a ×2 or ×0.5 demand step
// (exact in binary, so every round sees the same demands and every solve
// moves every head).
WarmSolves measure_warm_solves(std::size_t replicas) {
  hydro::WaterNetwork net = make_district(replicas).net;
  if (!net.solve()) throw std::runtime_error("bench_fleet: cold solve failed");
  constexpr int kSolves = 8;
  WarmSolves w;
  w.pipes = net.pipe_count();
  w.ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 3; ++round) {
    double wall_ms = 0.0;
    long long sweeps = 0;
    for (int i = 0; i < kSolves; ++i) {
      net.scale_demands(i % 2 == 0 ? 2.0 : 0.5);
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = net.solve();
      const auto t1 = std::chrono::steady_clock::now();
      if (!ok) throw std::runtime_error("bench_fleet: warm solve failed");
      wall_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      sweeps += net.last_solve_iterations();
    }
    w.ms = std::min(w.ms, wall_ms / kSolves);
    w.sweeps = static_cast<double>(sweeps) / kSolves;
  }
  return w;
}

HydroScaling measure_hydro_scaling() {
  HydroScaling h{measure_warm_solves(32), measure_warm_solves(313), 0.0};
  h.ratio = h.small.ms > 0.0 ? h.large.ms / h.small.ms : 0.0;
  return h;
}

// --- per-stage micro throughput -------------------------------------------
// Samples/s through each hot-path stage, measured standalone so the JSON
// artifact records where the end-to-end fleet number comes from. The CI gates
// (ci/bench_compare.py) read same-binary ratios of these rates: the channel's
// fused frame loop and its lanes against the per-tick tick() oracle path.
struct StageRates {
  double amp_scalar = 0.0;
  double channel_scalar = 0.0;
  double channel_block = 0.0;
  /// The same fused frame path measured again after an explicit tracing
  /// kill-switch: the hot path a production run with tracing off pays for
  /// the dormant AQUA_TRACE_* branches.
  double channel_block_tracing_off = 0.0;
  /// Cross-sensor SIMD lanes (simd::ChannelBatch over kBatchChannels
  /// channels, aggregate channel-samples/s): the same fused frame loop with
  /// W sensors per instruction.
  double channel_batch = 0.0;
  double thermal_step = 0.0;
};

constexpr int kBatchChannels = 8;  // a multiple of every lane width

/// a / b, or 0 when nothing was measured — the same-binary ratios the CI
/// gates read.
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Repeats `body(batch)` until ~0.2 s has elapsed; returns samples/second.
template <typename Body>
double rate_per_second(long samples_per_batch, Body&& body) {
  using clock = std::chrono::steady_clock;
  long total = 0;
  const auto t0 = clock::now();
  auto t1 = t0;
  do {
    body();
    total += samples_per_batch;
    t1 = clock::now();
  } while (std::chrono::duration<double>(t1 - t0).count() < 0.2);
  return total / std::chrono::duration<double>(t1 - t0).count();
}

StageRates measure_stages() {
  constexpr int kFrame = 128;
  StageRates s;

  {
    analog::InstrumentAmp amp{analog::InstrumentAmpSpec{}, util::hertz(256e3),
                              util::Rng{7}};
    const util::Seconds dt{1.0 / 256e3};
    double sink = 0.0;
    s.amp_scalar = rate_per_second(kFrame, [&] {
      for (int i = 0; i < kFrame; ++i)
        sink += amp.step(util::volts(1e-3), dt);
    });
    if (sink == 42.0) std::printf(" ");  // keep the scalar loop live
  }
  {
    // The gated pair: alternate short scalar/block windows and keep the best
    // of each, so a slow CPU-clock wander on a busy runner hits both paths
    // alike instead of skewing whichever ran second.
    isif::InputChannel ch{isif::ChannelConfig{}, util::Rng{2}};
    isif::InputChannel chf{isif::ChannelConfig{}, util::Rng{2}};
    isif::InputChannel cht{isif::ChannelConfig{}, util::Rng{2}};
    std::vector<double> frame(kFrame, 1e-3);
    // The batch side: kBatchChannels identical channels advanced as lane
    // groups; aggregate channel-samples/s is directly comparable to
    // channel_block (same per-sample work, W sensors per instruction).
    std::vector<std::unique_ptr<isif::InputChannel>> batch_channels;
    for (int c = 0; c < kBatchChannels; ++c)
      batch_channels.push_back(std::make_unique<isif::InputChannel>(
          isif::ChannelConfig{}, util::Rng{2}));
    std::vector<simd::ChannelFrameInput> batch_in;
    for (auto& bc : batch_channels)
      batch_in.push_back(simd::ChannelFrameInput{bc.get(), frame});
    std::vector<isif::ChannelSample> batch_out(
        static_cast<std::size_t>(kBatchChannels));
    double sink = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
      s.channel_scalar = std::max(
          s.channel_scalar, rate_per_second(kFrame, [&] {
            for (int i = 0; i < kFrame; ++i)
              if (auto r = ch.tick(util::volts(1e-3))) sink += r->value;
          }));
      s.channel_block = std::max(
          s.channel_block, rate_per_second(kFrame, [&] {
            sink += chf.process_frame(frame).value;
          }));
      s.channel_batch = std::max(
          s.channel_batch, rate_per_second(kBatchChannels * kFrame, [&] {
            simd::ChannelBatch::process_frames(batch_in, batch_out);
            sink += batch_out.front().value;
          }));
      // Same block path under an explicit tracing kill-switch: the window
      // rides the same alternation so clock wander hits all three alike.
      obs::TraceRecorder::set_enabled(false);
      s.channel_block_tracing_off = std::max(
          s.channel_block_tracing_off, rate_per_second(kFrame, [&] {
            sink += cht.process_frame(frame).value;
          }));
    }
    if (sink == 42.0) std::printf(" ");
  }
  {
    maf::MafDie die{maf::MafSpec{}};
    maf::Environment env;
    env.speed = util::metres_per_second(0.8);
    die.set_heater_powers(util::milliwatts(5.0), util::milliwatts(5.0),
                          util::milliwatts(1.0));
    double sink = 0.0;
    s.thermal_step = rate_per_second(64, [&] {
      for (int i = 0; i < 64; ++i) die.step(util::Seconds{4e-6}, env);
      sink += die.heater_a_resistance().value();
    });
    if (sink == 42.0) std::printf(" ");
  }
  return s;
}

// threads == 0: serial on the caller's thread (no pool constructed).
RunResult run_mode(unsigned threads, double sim_seconds) {
  District d = make_district();
  fleet::FleetConfig cfg;
  cfg.sensor.isif = cta::coarse_isif_config();
  cfg.sensor.cta.output_cutoff = util::hertz(2.0);
  cfg.root_seed = 42;
  cfg.epoch = Seconds{0.25};
  cfg.demand_factor = fleet::diurnal_demand_pattern(Seconds{8.0});
  fleet::FleetEngine engine(d.net, d.placements, cfg);
  engine.set_shared_fit(cta::KingFit{0.9, 1.1, 0.5});

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  engine.commission(Seconds{0.25}, pool.get());

  const auto t0 = std::chrono::steady_clock::now();
  engine.run(Seconds{sim_seconds}, pool.get());
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.sensors = engine.size();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.throughput =
      static_cast<double>(engine.size()) * sim_seconds / r.wall_s;
  r.checksum = fault::fleet_trace_checksum(engine);
  return r;
}

/// Machine-readable result file (CI artifact): per-mode timings/checksums plus
/// the merged metrics snapshot — epoch/step latency histograms, channel
/// overload and PI saturation counters accumulated over every mode.
void write_json_report(const std::vector<std::pair<std::string, RunResult>>& modes,
                       const StageRates& stages, const ScalingReport& scaling,
                       const CheckpointOverhead& ckpt,
                       const HydroScaling& hydro, unsigned hw,
                       bool deterministic) {
  const char* env_path = std::getenv("AQUA_BENCH_JSON");
  const std::string path = env_path != nullptr ? env_path : "BENCH_fleet.json";

  std::string out;
  out += "{\n  \"bench\": \"bench_fleet\",\n";
  out += std::string("  \"deterministic\": ") +
         (deterministic ? "true" : "false") + ",\n";
  out += "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const auto& [name, r] = modes[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"mode\": \"%s\", \"wall_s\": %.6f, "
                  "\"throughput\": %.3f, \"sensors\": %zu, "
                  "\"checksum\": \"%016llx\"}%s\n",
                  name.c_str(), r.wall_s, r.throughput, r.sensors,
                  static_cast<unsigned long long>(r.checksum),
                  i + 1 < modes.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n";
  {
    // Sharded epoch-loop scaling: the machine-independent efficiency ratio
    // and the bytes-per-sensor ceiling ci/bench_compare.py gates, plus the
    // raw sweep (each mode's best run) for the artifact.
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "  \"scaling\": {\n"
        "    \"sensors\": %zu,\n"
        "    \"epochs\": %lld,\n"
        "    \"hardware_threads\": %u,\n"
        "    \"deterministic\": %s,\n"
        "    \"fleet_scaling_efficiency\": %.3f,\n"
        "    \"pool8_over_serial\": %.3f,\n"
        "    \"passes\": %d,\n"
        "    \"bytes_per_sensor\": %.0f,\n"
        "    \"modes\": [\n",
        scaling.sensors, scaling.epochs, hw,
        scaling.deterministic ? "true" : "false", scaling.efficiency,
        scaling.pool8_over_serial, kScalingPasses, scaling.bytes_per_sensor);
    out += buf;
    for (std::size_t i = 0; i < scaling.modes.size(); ++i) {
      const auto& [name, r] = scaling.modes[i];
      std::snprintf(buf, sizeof buf,
                    "      {\"mode\": \"%s\", \"wall_s\": %.6f, "
                    "\"throughput\": %.3f, \"checksum\": \"%016llx\"}%s\n",
                    name.c_str(), r.wall_s, r.throughput,
                    static_cast<unsigned long long>(r.checksum),
                    i + 1 < scaling.modes.size() ? "," : "");
      out += buf;
    }
    out += "    ],\n";
    if (scaling.xl_ran) {
      std::snprintf(buf, sizeof buf,
                    "    \"completion_run\": {\"sensors\": %zu, "
                    "\"epochs\": %lld, \"wall_s\": %.3f, "
                    "\"checksum\": \"%016llx\"}\n",
                    scaling.xl_sensors, scaling.xl_epochs, scaling.xl_wall_s,
                    static_cast<unsigned long long>(scaling.xl_checksum));
      out += buf;
    } else {
      out += "    \"completion_run\": null\n";
    }
    out += "  },\n";
  }
  {
    // Per-stage micro throughput (samples/s): where the end-to-end number
    // comes from, and the input to the CI regression gate.
    char buf[2048];
    std::snprintf(
        buf, sizeof buf,
        "  \"stages\": {\n"
        "    \"amp_scalar_sps\": %.0f,\n"
        "    \"channel_scalar_sps\": %.0f,\n"
        "    \"channel_block_sps\": %.0f,\n"
        "    \"channel_block_over_scalar\": %.3f,\n"
        "    \"channel_block_tracing_off_sps\": %.0f,\n"
        "    \"channel_tracing_off_over_block\": %.3f,\n"
        "    \"lane_width\": %d,\n"
        "    \"channel_batch_sps\": %.0f,\n"
        "    \"channel_batch_over_block\": %.3f,\n"
        "    \"channel_batch_over_scalar\": %.3f,\n"
        "    \"fleet_nockpt_sps\": %.0f,\n"
        "    \"fleet_ckpt_sps\": %.0f,\n"
        "    \"fleet_ckpt_over_nockpt\": %.3f,\n"
        "    \"checkpoint_interval_epochs\": %lld,\n"
        "    \"checkpoint_image_bytes\": %zu,\n"
        "    \"thermal_step_sps\": %.0f\n"
        "  },\n",
        stages.amp_scalar, stages.channel_scalar, stages.channel_block,
        ratio(stages.channel_block, stages.channel_scalar),
        stages.channel_block_tracing_off,
        ratio(stages.channel_block_tracing_off, stages.channel_block),
        simd::active_lane_width(), stages.channel_batch,
        ratio(stages.channel_batch, stages.channel_block),
        ratio(stages.channel_batch, stages.channel_scalar),
        ckpt.nockpt_sps, ckpt.ckpt_sps, ckpt.ratio, ckpt.interval,
        ckpt.image_bytes, stages.thermal_step);
    out += buf;
  }
  {
    // Warm hydraulic solves at two network sizes; the ratio is gated.
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"hydro\": {\n"
                  "    \"solve_1k_pipes\": %zu,\n"
                  "    \"solve_1k_ms\": %.3f,\n"
                  "    \"solve_1k_sweeps\": %.2f,\n"
                  "    \"solve_10k_pipes\": %zu,\n"
                  "    \"solve_10k_ms\": %.3f,\n"
                  "    \"solve_10k_sweeps\": %.2f,\n"
                  "    \"hydro_solve_10k_over_1k\": %.3f\n"
                  "  },\n",
                  hydro.small.pipes, hydro.small.ms, hydro.small.sweeps,
                  hydro.large.pipes, hydro.large.ms, hydro.large.sweeps,
                  hydro.ratio);
    out += buf;
  }
  // Re-indent the snapshot under the "metrics" key (it renders from column 0).
  std::string metrics = obs::to_json(obs::Registry::instance().snapshot());
  std::string indented;
  indented.reserve(metrics.size());
  for (char c : metrics) {
    indented += c;
    if (c == '\n') indented += "  ";
  }
  out += "  \"metrics\": " + indented + "\n}\n";

  obs::write_file(path, out);
  std::printf("metrics: wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  aqua::bench::banner(
      "bench_fleet", "fleet co-simulation scaling (paper §6)",
      "many cheap sensors diffused over the network, co-simulated; serial "
      "and parallel runs must agree bit-for-bit");

  const double sim_seconds = 4.0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, sensors: 32, sim horizon: %.1f s "
              "(epoch 0.25 s, diurnal day 8 s, coarse ISIF)\n\n",
              hw, sim_seconds);
  std::printf("%-12s %10s %16s %18s\n", "mode", "wall [s]",
              "sensors*sims/s", "trace checksum");

  std::vector<std::pair<std::string, RunResult>> results;

  // Trace the timed modes: the capture itself is part of what this bench
  // proves (identical checksums with tracing enabled = the no-perturbation
  // contract). Pool workers name their tracks as each pool spins up.
  obs::TraceRecorder::set_enabled(true);
  obs::TraceRecorder::set_thread_name("main");

  const RunResult serial = run_mode(0, sim_seconds);
  results.emplace_back("serial", serial);
  std::printf("%-12s %10.3f %16.1f %18llx\n", "serial", serial.wall_s,
              serial.throughput,
              static_cast<unsigned long long>(serial.checksum));

  bool deterministic = true;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const RunResult r = run_mode(threads, sim_seconds);
    const bool same = r.checksum == serial.checksum;
    deterministic = deterministic && same;
    char mode[32];
    std::snprintf(mode, sizeof mode, "pool(%u)", threads);
    results.emplace_back(mode, r);
    std::printf("%-12s %10.3f %16.1f %18llx%s\n", mode, r.wall_s,
                r.throughput, static_cast<unsigned long long>(r.checksum),
                same ? "" : "  << MISMATCH");
  }

  std::printf("\ndeterminism: %s — every mode reproduced the serial traces "
              "bit-for-bit\n",
              deterministic ? "PASS" : "FAIL");

  // Export the capture next to the metrics artifact, then disable tracing so
  // the stage micro-benchmarks below measure the dormant-branch hot path.
  {
    const char* env_trace = std::getenv("AQUA_TRACE_JSON");
    const std::string trace_path =
        env_trace != nullptr ? env_trace : "BENCH_fleet_trace.json";
    obs::write_chrome_trace(trace_path,
                            obs::TraceRecorder::instance().snapshot());
    std::printf("trace: wrote %s (open at https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  obs::TraceRecorder::set_enabled(false);

  // Scaling sweep runs with tracing off: a 10k-sensor capture would swamp the
  // ring buffers, and the dormant-branch cost is what production pays.
  const ScalingReport scaling = run_scaling_sweep(hw);

  std::printf("\nper-stage micro throughput (samples/s):\n");
  const StageRates stages = measure_stages();
  std::printf("  %-22s %12.3e\n", "amp scalar", stages.amp_scalar);
  std::printf("  %-22s %12.3e\n", "channel scalar ticks", stages.channel_scalar);
  std::printf("  %-22s %12.3e  (%.2fx scalar)\n", "channel block frames",
              stages.channel_block,
              ratio(stages.channel_block, stages.channel_scalar));
  std::printf("  %-22s %12.3e  (%.2fx traced-build block)\n",
              "channel (tracing off)", stages.channel_block_tracing_off,
              ratio(stages.channel_block_tracing_off, stages.channel_block));
  std::printf("  %-22s %12.3e  (%.2fx block, lane width %d)\n",
              "channel batch lanes", stages.channel_batch,
              ratio(stages.channel_batch, stages.channel_block),
              simd::active_lane_width());
  std::printf("  %-22s %12.3e\n", "thermal die step", stages.thermal_step);

  const CheckpointOverhead ckpt = measure_checkpoint_overhead();
  std::printf("\ncheckpoint overhead: %.1f sensors*sims/s plain vs %.1f with "
              "a durable checkpoint every %lld epochs (%.2fx, CI floor 0.90; "
              "image %zu bytes)\n",
              ckpt.nockpt_sps, ckpt.ckpt_sps, ckpt.interval, ckpt.ratio,
              ckpt.image_bytes);

  const HydroScaling hydro = measure_hydro_scaling();
  std::printf("\nhydraulic warm solve: %.2f ms at %zu pipes (%.1f sweeps), "
              "%.2f ms at %zu pipes (%.1f sweeps): %.1fx (CI ceiling 20)\n",
              hydro.small.ms, hydro.small.pipes, hydro.small.sweeps,
              hydro.large.ms, hydro.large.pipes, hydro.large.sweeps,
              hydro.ratio);

  write_json_report(results, stages, scaling, ckpt, hydro, hw, deterministic);
  if (hw <= 1)
    std::printf("note: single hardware thread — parallel modes time-slice "
                "one core, so no wall-clock speedup is expected here.\n");
  return (deterministic && scaling.deterministic) ? 0 : 1;
}
