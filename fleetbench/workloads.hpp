// workloads.hpp — the fleet co-simulation workloads of the benchmark and the
// two ways of running one: a timed run (end-to-end metrics, no spans) and a
// traced run (spans around every call into a layer's public functions,
// per-layer metrics). Both build the same fleet from (workload, seed) and
// produce the same trace checksum; tracing only adds calls around the
// library, never inside it.
//
// The load is closed-loop: one process, one util::ThreadPool of `workers`
// threads driven through the engine's persistent worker team, and the next
// epoch starts when the previous one returns. The caller thread runs only the
// serial phases (injector, supervisor, checkpoints) while the workers park.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "hydro/network.hpp"
#include "sim/schedule.hpp"
#include "spans.hpp"

namespace fleetbench {

/// One named workload: which fleet, which sensor stack, how long.
struct WorkloadSpec {
  std::string name;
  /// Copies of the 32-pipe district (each hydraulically independent).
  std::size_t districts = 1;
  /// One sensor on every `sensor_stride`-th pipe.
  std::size_t sensor_stride = 1;
  aqua::fleet::ChannelExecution execution =
      aqua::fleet::ChannelExecution::kScalar;
  double epoch_s = 0.1;
  /// Length of the compressed diurnal demand day; 0 keeps demand constant.
  double diurnal_day_s = 0.0;
  /// Epochs every run steps, whatever the host's speed; the metrics and the
  /// trace checksum cover exactly these.
  long long epochs = 40;
  /// Fault events of the seeded campaign (0 = no injector, no supervisor).
  std::size_t fault_events = 0;
  /// Durable checkpoint every this many epochs (0 = none).
  long long checkpoint_every = 0;
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] std::vector<WorkloadSpec> workloads();
/// Looks a workload up by name; throws std::invalid_argument when unknown.
[[nodiscard]] WorkloadSpec workload(const std::string& name);

/// The workload's network: `districts` copies of the 32-pipe district.
[[nodiscard]] aqua::hydro::WaterNetwork build_network(const WorkloadSpec& spec);
/// One sensor at the axis of every `sensor_stride`-th pipe.
[[nodiscard]] std::vector<aqua::fleet::SensorPlacement> sensor_placements(
    const WorkloadSpec& spec, const aqua::hydro::WaterNetwork& net);
/// The fleet configuration every run of the workload uses.
[[nodiscard]] aqua::fleet::FleetConfig fleet_config(const WorkloadSpec& spec,
                                                    std::uint64_t seed);

struct RunOptions {
  std::uint64_t seed = 2008;
  /// Pool threads; 0 runs every epoch serially on the caller's thread.
  unsigned workers = 0;
  /// Directory for checkpoints and the span file (must exist).
  std::string scratch_dir = ".";
};

/// Replays the engine's hydraulic solves on a copy of the network: same
/// base demands, same demand schedule, evaluated at the engine's own clock.
class HydroReplay {
 public:
  /// `start` is the network as it stood before the first replayed solve;
  /// `base_demands` are its junction demands before any scaling.
  HydroReplay(const aqua::hydro::WaterNetwork& start,
              std::vector<double> base_demands,
              const aqua::fleet::FleetConfig& config);
  /// Scales the copy's demands to the factor at `t_s` and solves it.
  bool solve_at(double t_s);
  /// True when every node head and pipe flow equals `engine_net`'s bit for
  /// bit.
  [[nodiscard]] bool matches(const aqua::hydro::WaterNetwork& engine_net) const;

 private:
  aqua::hydro::WaterNetwork net_;
  std::vector<double> base_demands_;
  aqua::sim::Schedule factor_;
  aqua::util::Kelvin temperature_;
};

/// Sensor-epoch accounting shared by both runs.
struct Accuracy {
  long long attempted = 0;  ///< sensor-epochs stepped
  long long failed = 0;     ///< non-finite estimate or failed solve
  long long valid = 0;      ///< in-service sensor-epochs scored
  double sq_err = 0.0;      ///< Σ (estimate − truth)² over valid ones
  [[nodiscard]] double rmse_pct_fs() const;
};

struct BoxRecord {
  unsigned nproc = 0;  ///< CPUs this process may run on
  unsigned hardware_concurrency = 0;
  unsigned pool_threads = 0;
  int lane_width = 0;  ///< simd::active_lane_width()
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  std::string log_level;  ///< AQUA_LOG_LEVEL as the process saw it
};
[[nodiscard]] BoxRecord box_record(unsigned pool_threads);
/// CPUs in this process's affinity mask.
[[nodiscard]] unsigned available_cpus();

/// Set-ups a timed run measures; the last one is the fleet that runs.
inline constexpr int kTimedSetups = 3;

struct TimedResult {
  std::size_t sensors = 0;
  double sim_s_per_epoch = 0.0;
  std::vector<double> setup_s;  ///< one per set-up (kTimedSetups)
  std::vector<double> epoch_s;  ///< wall time of each epoch (+ checkpoint)
  long long checkpoints = 0;
  std::uint64_t checksum = 0;  ///< after spec.epochs epochs
  Accuracy accuracy;
  long long solve_failures = 0;
  double peak_rss_mb = 0.0;
  std::vector<std::string> errors;
};

/// The timed run: exactly spec.epochs epochs, end-to-end metrics, no spans.
[[nodiscard]] TimedResult run_timed(const WorkloadSpec& spec,
                                    const RunOptions& options);

struct TracedResult {
  std::size_t sensors = 0;
  std::uint64_t checksum = 0;  ///< after spec.epochs epochs
  double sensor_sim_s_per_wall_s = 0.0;  ///< over the traced epoch loop
  std::map<std::string, double> metrics;  ///< per-layer, by name
  std::map<std::string, double> details;  ///< percentiles, sample counts
  std::vector<std::string> errors;
  double wall_s = 0.0;  ///< root span duration
  SpanLog spans;
};

/// The traced run: exactly spec.epochs epochs with spans around every layer
/// call, the hydraulic replay checked every epoch, then the probes.
[[nodiscard]] TracedResult run_traced(const WorkloadSpec& spec,
                                      const RunOptions& options);

/// Non-empty shards of a plan.
[[nodiscard]] std::size_t shards_used(const aqua::fleet::ShardPlan& plan);

/// Value at quantile q (0..1) of `values` (nearest rank on a sorted copy).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The highest of p75/p90/p99 with at least 10 samples beyond it.
struct Tail {
  double value = 0.0;
  int percentile = 75;  ///< p75 also when fewer than 40 samples
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

}  // namespace fleetbench
