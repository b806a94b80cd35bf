// shard.hpp — cost-balanced sensor sharding for the fleet epoch loop.
//
// A fleet epoch is embarrassingly parallel across sensors, but per-sensor
// step cost is not uniform: the observed per-step wall times spread ~20×
// (fouled dies iterate their thermal solve harder, saturated loops run extra
// PI work). Equal-count shards therefore load-balance badly — the epoch ends
// when the unluckiest shard does. This module partitions sensor indices into
// shards whose *predicted* costs are as equal as the classic LPT greedy gets
// them (longest processing time first: sort by cost descending, always assign
// to the currently lightest shard — a 4/3-approximation of the optimum).
//
// A sensor whose cost has not been measured yet (cost <= 0: a fresh engine,
// or a sensor that has never stepped) is planned at the mean of the measured
// costs, or at 1.0 when nothing has been measured. A cold fleet therefore
// splits by count across every shard instead of piling into shard 0, and a
// partly measured one stays balanced.
//
// Costs are wall-clock measurements, so the resulting partition is
// scheduling-dependent and explicitly OUTSIDE the determinism contract; what
// the contract demands — and tests/fleet/test_scaling.cpp proves — is that
// the simulation output is bit-identical under EVERY partition, because each
// sensor owns its state and RNG stream. Planning itself is a deterministic
// function of (costs, shard_count): ties break on the lower sensor index and
// the lower shard index, so equal inputs give equal plans on any platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace aqua::fleet {

/// A partition of sensor indices [0, n) into shards. Shard s lists its
/// sensors in ascending index order (the epoch loop streams them forward
/// through the engine's structure-of-arrays hot state).
struct ShardPlan {
  std::vector<std::vector<std::uint32_t>> shards;

  [[nodiscard]] std::size_t shard_count() const { return shards.size(); }
  [[nodiscard]] std::size_t sensor_count() const;
  /// True when the plan covers each index in [0, n) exactly once.
  [[nodiscard]] bool is_partition_of(std::size_t n) const;
};

/// LPT cost-balanced partition of `costs.size()` sensors into `shard_count`
/// shards (empty shards are legal when sensors < shards). `shard_count` == 0
/// is promoted to 1. A cost <= 0 (or NaN) means "not measured": that sensor
/// is planned at the mean of the positive costs, or at 1.0 if there are none,
/// so all-zero costs give shard sizes that differ by at most one.
/// Deterministic for equal inputs.
[[nodiscard]] ShardPlan plan_shards(std::span<const double> costs,
                                    std::size_t shard_count);

/// Predicted cost of each shard under the given per-sensor costs.
[[nodiscard]] std::vector<double> shard_costs(const ShardPlan& plan,
                                              std::span<const double> costs);

}  // namespace aqua::fleet
