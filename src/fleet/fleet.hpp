// fleet.hpp — the fleet co-simulation engine: N independent CTA sensors
// attached to pipes of a hydro::WaterNetwork, co-simulated against the
// network's diurnal demand pattern (paper §6: "diffusive monitoring in water
// distribution networks").
//
// Timing model: time advances in fixed epochs. At each epoch boundary the
// engine (serially) scales the junction demands by the diurnal factor and
// re-solves the steady-state network; every sensor then integrates its
// ΣΔ/CIC/PI loop across the epoch under its pipe's frozen hydraulic state.
//
// Execution model (DESIGN.md §7, §12): sensors are partitioned into
// cost-balanced shards (fleet::plan_shards over per-sensor EWMA step costs,
// rebalanced between epochs), one shard per participant of the
// util::ThreadPool passed in. Each epoch releases the pool's parked team once
// with run(); participant w steps shards w, w+n, … . Without a pool the
// caller is a team of one: a one-shard plan holding every sensor in
// ascending order. Commissioning and calibration go through the same run(),
// each participant claiming the next unclaimed sensor. The per-epoch hot
// state (pipe snapshots in, sample fields out, step costs) lives in
// structure-of-arrays form so an epoch streams memory instead of chasing
// SensorNode pointers, and so readers (supervisor polls, leak estimates) can
// scan the fleet without touching the nodes.
//
// Determinism contract (the load-bearing property): each SensorNode owns all
// of its mutable state and draws from its private counter-based RNG stream
// (util::Rng::stream(root_seed, sensor_index)), and epoch snapshots are
// computed serially before the fan-out. Sensor tasks therefore commute, and
// the same root seed produces bit-identical per-sensor traces for ANY thread
// count AND any shard assignment — including none. Shard plans are built from
// wall-clock costs and are explicitly outside the contract; the simulation
// output must not (and does not) depend on them. tests/fleet/ enforce both.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fleet/report.hpp"
#include "fleet/sensor_node.hpp"
#include "fleet/shard.hpp"
#include "hydro/network.hpp"
#include "sim/schedule.hpp"
#include "state/checkpoint.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace aqua::fleet {

/// Knobs of the cost-balanced sharding layer.
struct ShardingConfig {
  /// Auto-rebalance cadence, in epochs (0 = plan once, never rebalance). The
  /// first plan is made before any cost is measured and splits the fleet by
  /// count, so interval 0 still runs on every shard — it just never moves a
  /// sensor afterwards. Rebalancing happens serially between epochs and never
  /// changes results — only wall-clock balance.
  long long rebalance_interval_epochs = 16;
  /// When false the engine stops folding measurements into the cost model —
  /// costs stay wherever set_cost_hint() put them (tests use this to build
  /// adversarial skews that reproduce exactly).
  bool measure_costs = true;
};

/// How the epoch loop advances its sensors (DESIGN.md §13).
enum class ChannelExecution {
  /// Per-sensor scalar stepping — the bit-identity reference path that the
  /// legacy fleet determinism checksum is committed against.
  kScalar,
  /// Cross-sensor SIMD lanes: each shard advances its frame-aligned sensors
  /// as one simd::CtaFrameBatch group (batched thermal sweep + W-wide fused
  /// channel chain); mid-frame sensors (e.g. freshly commissioned ones) fall
  /// back to the scalar path without perturbing any neighbour's RNG stream.
  /// Deterministic under its own committed checksum — invariant to lane
  /// width, thread count and shard plan — but intentionally not bit-equal to
  /// kScalar (different Gaussian transform; see simd/channel_batch.hpp).
  kSimdBatch,
};

struct FleetConfig {
  /// Template for every sensor (placement and RNG stream are per-node).
  SensorNodeConfig sensor{};
  std::uint64_t root_seed = 42;
  /// Scalar reference path by default; opt in to the SIMD lanes per fleet.
  ChannelExecution execution = ChannelExecution::kScalar;
  /// Lane width for kSimdBatch (0 = the width the simd objects were compiled
  /// for; 1/2/4/8 force a width — any value reproduces the same results).
  int batch_lane_width = 0;
  /// Network solve cadence; sensors integrate one epoch between solves.
  util::Seconds epoch{0.25};
  /// Demand multiplier vs simulation time (diurnal pattern; constant 1 by
  /// default). Applied to the base demands captured at construction.
  sim::Schedule demand_factor{1.0};
  util::Kelvin water_temperature = util::celsius(15.0);
  /// Absolute pressure floor the node pressure heads ride on.
  util::Pascals atmospheric = util::bar(1.0);
  ShardingConfig sharding{};
};

/// Residential 24-hour demand pattern — night valley (0.3×), morning peak
/// (1.6×), midday plateau, evening peak (1.3×) — compressed to `day`.
[[nodiscard]] sim::Schedule diurnal_demand_pattern(util::Seconds day);

/// Per-sensor estimates paired with a validity mask. `values[i]` is only
/// meaningful where `valid[i]` is nonzero; for quarantined / faulted / never-
/// sampled sensors the value is pinned to 0.0 rather than silently replaying
/// the last pre-fault trace sample. Consumers that can degrade gracefully
/// (LeakLocalizer's masked overloads) should use the mask; consumers that
/// cannot must treat any invalid entry as missing data.
struct MaskedEstimates {
  std::vector<double> values;
  std::vector<std::uint8_t> valid;

  [[nodiscard]] std::size_t valid_count() const;
};

class FleetEngine {
 public:
  /// Captures the network's current demands as the diurnal base and solves
  /// once. Throws std::runtime_error if that initial solve fails.
  FleetEngine(hydro::WaterNetwork& network,
              std::span<const SensorPlacement> placements,
              const FleetConfig& config);

  /// Runs the ISIF channel self-test on every sensor, then settles every
  /// sensor at zero flow (participants of `pool`, if given, claim sensors
  /// one at a time). Self-test results surface through
  /// SensorNode::last_self_test() and the FleetReport; the test leaves the
  /// channel bit-identical to its pre-test state, so the determinism
  /// checksum is unaffected.
  void commission(util::Seconds settle = util::Seconds{1.0},
                  util::ThreadPool* pool = nullptr);

  /// Field-service action on one node, the supervisor's re-commission move:
  /// reboot the electronics, run the channel self-test, re-null the direction
  /// channel at zero flow. Serial by design — supervisor actions happen at
  /// epoch boundaries on the caller's thread (determinism contract). Returns
  /// the self-test result.
  isif::ChannelSelfTestResult recommission(std::size_t i, util::Seconds settle);

  /// Per-sensor King's-law sweep (spread over `pool` like commission).
  /// Each die gets its own fit, absorbing its tolerance draws.
  void calibrate(std::span<const double> mean_speeds,
                 util::Seconds dwell = util::Seconds{0.5},
                 util::ThreadPool* pool = nullptr);

  /// Fleet-wide nominal fit instead of per-sensor sweeps (cheap, less exact).
  void set_shared_fit(const cta::KingFit& fit);

  /// Co-simulates `duration` in epochs (a loop over step_epoch) — on the
  /// caller's thread when `pool` is null, else on the pool's team;
  /// bit-identical either way.
  void run(util::Seconds duration, util::ThreadPool* pool = nullptr);

  /// Advances exactly one epoch: demand scaling, network solve, serial pipe
  /// snapshots, one pool->run() over the shards (or the caller alone when
  /// `pool` is null), clock tick. Fault injectors and the fleet supervisor
  /// act *between* step_epoch calls on the caller's thread, which keeps
  /// campaigns bit-reproducible at any thread count. Any number of engines
  /// may share one pool.
  void step_epoch(util::ThreadPool* pool = nullptr);

  /// Does nothing. It survives only because the fleet benchmark
  /// (fleetbench/workloads.cpp) still constructs one around its epoch loops;
  /// every pooled step_epoch already runs on the pool's parked team. Delete
  /// it together with those uses.
  class TeamSession {
   public:
    TeamSession(FleetEngine& /*engine*/, util::ThreadPool* /*pool*/) {}
    TeamSession(const TeamSession&) = delete;
    TeamSession& operator=(const TeamSession&) = delete;
  };

  // --- cost model and shard plan -------------------------------------------

  /// Current partition of sensors into shards (rebuilt lazily for the pool in
  /// use — one shard without a pool; empty until the first epoch or explicit
  /// rebalance).
  [[nodiscard]] const ShardPlan& shard_plan() const { return plan_; }

  /// Replaces the plan with a caller-supplied partition and pins it (auto
  /// rebalance stops until clear_shard_plan). Throws std::invalid_argument if
  /// `plan` is not a partition of [0, size()). Any partition is legal — the
  /// determinism contract makes them all produce identical simulations.
  void set_shard_plan(ShardPlan plan);
  /// Unpins a manual plan; cost-based planning resumes.
  void clear_shard_plan();

  /// Recomputes the LPT plan for `shard_count` shards from the current cost
  /// model, immediately.
  void rebalance_shards(std::size_t shard_count);
  [[nodiscard]] long long rebalances() const { return rebalances_; }

  /// Wall-clock seconds each shard of the current plan spent stepping its
  /// sensors in the last epoch (0.0 for an empty shard; one entry after a
  /// pool-less epoch). Max over mean of these is what fleet.shard.imbalance
  /// observes each epoch — 1.0 for a one-shard plan.
  [[nodiscard]] std::span<const double> shard_busy_seconds() const {
    return shard_busy_s_;
  }

  /// Per-sensor predicted step cost (seconds; EWMA of measured wall time
  /// unless pinned via set_cost_hint with measurement off).
  [[nodiscard]] double cost_estimate(std::size_t i) const {
    return hot_.cost_ewma_s[i];
  }
  /// Seeds/overrides sensor `i`'s cost estimate. With
  /// ShardingConfig::measure_costs == false the hint is permanent.
  void set_cost_hint(std::size_t i, double seconds);

  [[nodiscard]] FleetReport report() const;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const SensorNode& node(std::size_t i) const {
    return *nodes_[i];
  }
  /// Mutable node access for the fault-injection and supervision layers.
  [[nodiscard]] SensorNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] util::Seconds now() const { return t_; }
  [[nodiscard]] hydro::WaterNetwork& network() { return net_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// Network solves that failed to converge during run() (previous solution
  /// carried over).
  [[nodiscard]] long long solve_failures() const { return solve_failures_; }
  /// Epochs stepped since construction.
  [[nodiscard]] long long epochs() const { return epoch_index_; }

  /// Latest per-sensor estimates with a validity mask. A sensor is invalid
  /// while it has never produced a sample or while the supervision layer has
  /// marked it out of service (set_estimate_valid); invalid values are pinned
  /// to 0.0 so garbage cannot leak into downstream consumers unnoticed.
  [[nodiscard]] MaskedEstimates latest_estimates_masked() const;

  /// Sensor `i`'s latest trace sample, served from the engine's SoA hot state
  /// instead of the node's trace vector — the supervisor's per-epoch poll
  /// reads this so a 10k-sensor scan streams four arrays rather than chasing
  /// 10k node pointers. Field-for-field equal to node(i).latest_sample() for
  /// every sample produced through step_epoch.
  [[nodiscard]] std::optional<TraceSample> latest_sample_view(
      std::size_t i) const;

  /// Marks sensor `i`'s estimate stream (in)valid. The supervisor drives this
  /// as nodes move through quarantine and recovery; all sensors start valid.
  void set_estimate_valid(std::size_t i, bool valid);
  [[nodiscard]] bool estimate_valid(std::size_t i) const {
    return estimate_valid_[i] != 0;
  }

  // --- crash-consistent checkpoint/restore (DESIGN.md §14) -----------------

  /// Serialises the engine's evolving state into `ck` as CRC-framed sections
  /// (META config fingerprint, OBSC deterministic counters, NETW hydraulic
  /// state, FLEN engine scalars + hot SoA, NODS every sensor). Must run at a
  /// quiescent point — between step_epoch calls, no epoch in flight.
  /// Composable: campaign layers append their own sections to the same image.
  void write_checkpoint(state::CheckpointWriter& ck) const;

  /// One self-contained checkpoint image (write_checkpoint + finish).
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const;

  /// Restores from a validated image into THIS engine, which must have been
  /// constructed with the identical config, placements and network — the
  /// one-time part draws (tolerances, offsets, mismatch) are reproduced by
  /// reconstruction and never enter a checkpoint. Validates the META section
  /// against the live config and throws state::Error on any mismatch or
  /// malformed payload; restore into a fresh instance after a throw.
  void read_checkpoint(const state::CheckpointReader& ck);
  /// Convenience: CheckpointReader(image) + read_checkpoint.
  void restore(std::span<const std::uint8_t> image);

 private:
  [[nodiscard]] PipeState pipe_state_for(const SensorNode& node) const;
  void apply_demand_factor(double factor);
  /// Serially freezes this epoch's per-sensor hydraulic state into the SoA
  /// input arrays (same arithmetic, same order, as pipe_state_for).
  void snapshot_epoch_inputs();
  /// Rehydrates sensor `i`'s frozen epoch input from the SoA arrays.
  [[nodiscard]] PipeState snapshot_state(std::size_t i) const;
  /// Advances sensor `i` one epoch from the SoA inputs and publishes its
  /// sample fields + measured cost back into the SoA outputs. Runs on pool
  /// workers for disjoint `i` — everything it touches is per-sensor. Only a
  /// `sampled` sensor emits a fleet.sensor trace span.
  void advance_sensor(std::size_t i, bool sampled);
  /// Advances the sensors in `ids` one epoch as a single cross-sensor SIMD
  /// group (SensorNode::advance_group) and publishes each one's sample. The
  /// group wall time is split evenly across the members for the cost model.
  void advance_sensor_group(std::span<const std::uint32_t> ids);
  /// One epoch for the sensors in `ids` under the configured execution mode:
  /// scalar per-sensor stepping, or one batch group per call with scalar
  /// fallback for sensors that are not frame-aligned.
  void advance_sensors(std::span<const std::uint32_t> ids);
  /// Mirrors node `i`'s newest trace sample into the SoA outputs (disjoint
  /// slot — safe from any worker).
  void publish_sample(std::size_t i);
  /// Folds a measured per-sensor step wall time into the EWMA cost model.
  void record_cost(std::size_t i, double seconds);
  /// Runs one shard of the current plan (ascending sensor order) and records
  /// its wall time in shard_busy_s_[shard].
  void process_shard(std::size_t shard);
  /// Observes max over mean of the epoch's per-shard busy seconds into the
  /// fleet.shard.imbalance histogram.
  void observe_shard_balance() const;
  /// Makes sure plan_ is a partition sized for `shard_count` shards, and
  /// applies the between-epochs auto-rebalance cadence.
  void ensure_plan(std::size_t shard_count);

  hydro::WaterNetwork& net_;
  FleetConfig config_;
  std::vector<double> base_demands_;  // indexed by NodeId; 0 for reservoirs
  std::vector<std::unique_ptr<SensorNode>> nodes_;
  std::vector<std::uint8_t> estimate_valid_;  // per sensor, 1 = in service

  /// Per-epoch hot state, structure-of-arrays: one slot per sensor. The
  /// epoch loop writes inputs serially, workers read inputs / write outputs
  /// for disjoint sensors, and cold readers scan outputs without touching
  /// SensorNode. Wall-clock costs live here too — they feed the shard
  /// planner, never the simulation.
  struct HotState {
    // Epoch inputs (frozen network state).
    std::vector<double> mean_velocity_mps;
    std::vector<double> point_velocity_mps;
    std::vector<double> pressure_pa;
    std::vector<double> temperature_k;
    // Latest-sample outputs (mirrors of the node's trace back()).
    std::vector<double> t_s;
    std::vector<double> bridge_voltage;
    std::vector<double> filtered_voltage;
    std::vector<double> estimate_mps;
    std::vector<std::int8_t> direction;
    std::vector<std::uint8_t> has_sample;
    // Cost model (EWMA step seconds; scheduling only).
    std::vector<double> cost_ewma_s;

    void resize(std::size_t n);
  };
  HotState hot_;

  ShardPlan plan_;
  std::vector<double> shard_busy_s_;  // per shard, written by its worker
  bool plan_manual_ = false;
  long long epoch_index_ = 0;
  long long rebalances_ = 0;

  util::Seconds t_{0.0};
  long long solve_failures_ = 0;
};

}  // namespace aqua::fleet
