#include "fleet/shard.hpp"

#include <algorithm>
#include <numeric>

namespace aqua::fleet {

std::size_t ShardPlan::sensor_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards) n += shard.size();
  return n;
}

bool ShardPlan::is_partition_of(std::size_t n) const {
  std::vector<std::uint8_t> seen(n, 0);
  for (const auto& shard : shards)
    for (const std::uint32_t i : shard) {
      if (i >= n || seen[i]) return false;
      seen[i] = 1;
    }
  return sensor_count() == n;
}

ShardPlan plan_shards(std::span<const double> costs, std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  ShardPlan plan;
  plan.shards.resize(shard_count);

  // Unmeasured sensors (cost <= 0, or NaN) are planned at the measured mean,
  // or at 1.0 on a cold fleet: counting them as free would stack them all on
  // the lightest shard, which stays shard 0 while its load is zero.
  double measured_sum = 0.0;
  std::size_t measured = 0;
  for (const double c : costs)
    if (c > 0.0) {
      measured_sum += c;
      ++measured;
    }
  const double unmeasured =
      measured > 0 ? measured_sum / static_cast<double>(measured) : 1.0;
  std::vector<double> cost(costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i)
    cost[i] = costs[i] > 0.0 ? costs[i] : unmeasured;

  // LPT: heaviest sensors first, ties broken by ascending index so the plan
  // is a pure function of its inputs.
  std::vector<std::uint32_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&cost](std::uint32_t a, std::uint32_t b) {
              if (cost[a] != cost[b]) return cost[a] > cost[b];
              return a < b;
            });

  // Always drop the next sensor into the lightest shard (lowest index wins a
  // tie). A linear argmin beats a heap here: shard counts are thread counts.
  std::vector<double> load(shard_count, 0.0);
  for (const std::uint32_t sensor : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shard_count; ++s)
      if (load[s] < load[lightest]) lightest = s;
    plan.shards[lightest].push_back(sensor);
    load[lightest] += cost[sensor];
  }
  for (auto& shard : plan.shards) std::sort(shard.begin(), shard.end());
  return plan;
}

std::vector<double> shard_costs(const ShardPlan& plan,
                                std::span<const double> costs) {
  std::vector<double> totals(plan.shards.size(), 0.0);
  for (std::size_t s = 0; s < plan.shards.size(); ++s)
    for (const std::uint32_t i : plan.shards[s])
      if (i < costs.size()) totals[s] += std::max(costs[i], 0.0);
  return totals;
}

}  // namespace aqua::fleet
