// WaterNetwork's cached solver structure: once a topology has been solved, a
// further solve allocates nothing; the cache follows valve changes and added
// junctions and pipes between solves; a copied network solves on its own.
// "Same as a fresh network" means: a network built from scratch, given the
// same state through save_state/load_state, solves to the same bits.
#include "hydro/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "state/serial.hpp"

#include "alloc_counter.hpp"

namespace aqua::hydro {
namespace {

using util::metres;
using util::millimetres;

// The fleet's district: a reservoir feeding four radial chains of tapered
// mains, 32 pipes. Pipes 1 to 8 form chain 0, from the hub outwards.
constexpr WaterNetwork::PipeId kChainFeed = 1;
constexpr WaterNetwork::PipeId kChainTail = 8;

// Closes or opens every pipe of chain 0. Closing only its feed would leave
// the chain connected but unsupplied, a singular system.
void set_chain_open(WaterNetwork& net, bool open) {
  for (WaterNetwork::PipeId p = kChainFeed; p <= kChainTail; ++p)
    net.set_pipe_open(p, open);
}

WaterNetwork district() {
  WaterNetwork net;
  const auto res = net.add_reservoir(45.0);
  const auto hub = net.add_junction(2.0, 0.002);
  net.add_pipe(res, hub, metres(200.0), millimetres(250.0));
  for (int chain = 0; chain < 4; ++chain) {
    auto prev = hub;
    for (int k = 0; k < (chain == 3 ? 7 : 8); ++k) {
      const auto next = net.add_junction(1.5 - 0.1 * k, 0.002);
      net.add_pipe(prev, next, metres(250.0), millimetres(150.0 - 14.0 * k));
      prev = next;
    }
  }
  return net;
}

// A spur junction, then the pipe hanging it off the district's hub.
constexpr WaterNetwork::NodeId kHub = 1;
constexpr WaterNetwork::NodeId kSpur = 33;

WaterNetwork district_with_spur(bool piped) {
  WaterNetwork net = district();
  net.add_junction(1.0, 0.001);
  if (piped) net.add_pipe(kHub, kSpur, metres(150.0), millimetres(80.0));
  return net;
}

void load_from(WaterNetwork& target, const WaterNetwork& source) {
  state::Writer w;
  source.save_state(w);
  const std::vector<std::uint8_t> image = w.take();
  state::Reader r(image);
  target.load_state(r);
}

void expect_same_bits(const WaterNetwork& got, const WaterNetwork& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.pipe_count(), want.pipe_count());
  for (std::size_t n = 0; n < got.node_count(); ++n)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.node_head(n)),
              std::bit_cast<std::uint64_t>(want.node_head(n)))
        << "node " << n;
  for (std::size_t p = 0; p < got.pipe_count(); ++p)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.pipe_flow(p)),
              std::bit_cast<std::uint64_t>(want.pipe_flow(p)))
        << "pipe " << p;
}

// Solves `net` and a fresh network carrying its state; both must succeed
// with the same heads and flows.
void expect_solves_like_fresh(WaterNetwork& net, WaterNetwork fresh) {
  load_from(fresh, net);
  ASSERT_TRUE(net.solve());
  ASSERT_TRUE(fresh.solve());
  expect_same_bits(net, fresh);
}

TEST(WaterNetworkCache, WarmSolveAllocatesNothing) {
#ifdef AQUA_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes allocate behind the allocator hooks";
#else
  WaterNetwork net = district();
  net.set_leak(12, 2e-4);
  ASSERT_TRUE(net.solve());  // sizes the cache for this topology

  const long before = allocation_count();
  net.scale_demands(1.6);
  const bool peak = net.solve();
  const int peak_sweeps = net.last_solve_iterations();
  net.scale_demands(0.25);
  const bool night = net.solve();
  net.set_pipe_open(kChainTail, true);  // already open: not a topology change
  net.set_leak(12, 0.0);
  const bool repaired = net.solve();
  const long allocations = allocation_count() - before;

  EXPECT_TRUE(peak && night && repaired);
  EXPECT_GT(peak_sweeps, 4);  // real work, not a no-op solve
  EXPECT_EQ(allocations, 0);
#endif
}

TEST(WaterNetworkCache, ValveChangesBetweenSolves) {
  WaterNetwork net = district();
  ASSERT_TRUE(net.solve());
  // Closing the tail isolates one junction, closing the chain eight.
  net.set_pipe_open(kChainTail, false);
  expect_solves_like_fresh(net, district());
  set_chain_open(net, false);
  expect_solves_like_fresh(net, district());
  set_chain_open(net, true);
  expect_solves_like_fresh(net, district());
}

TEST(WaterNetworkCache, AddedJunctionAndPipeBetweenSolves) {
  WaterNetwork net = district();
  ASSERT_TRUE(net.solve());
  ASSERT_EQ(net.add_junction(1.0, 0.001), kSpur);  // isolated until piped
  expect_solves_like_fresh(net, district_with_spur(false));
  EXPECT_EQ(net.node_pressure_head(kSpur), 0.0);
  net.add_pipe(kHub, kSpur, metres(150.0), millimetres(80.0));
  expect_solves_like_fresh(net, district_with_spur(true));
  EXPECT_GT(net.node_pressure_head(kSpur), 0.0);
}

TEST(WaterNetworkCache, LoadStateRestoresValveTopology) {
  WaterNetwork closed = district();
  set_chain_open(closed, false);
  ASSERT_TRUE(closed.solve());
  WaterNetwork net = district();
  ASSERT_TRUE(net.solve());  // cached with every valve open
  load_from(net, closed);
  EXPECT_FALSE(net.pipe_open(kChainFeed));
  expect_solves_like_fresh(net, district());
}

TEST(WaterNetworkCache, CopiedNetworkSolvesOnItsOwn) {
  WaterNetwork net = district();
  ASSERT_TRUE(net.solve());
  WaterNetwork copy = net;
  WaterNetwork assigned = district();
  ASSERT_TRUE(assigned.solve());

  // The original moves on to another topology; the copy keeps its own.
  set_chain_open(net, false);
  ASSERT_TRUE(net.solve());
  copy.scale_demands(1.4);
  expect_solves_like_fresh(copy, district());

  // Assignment over a network with a cache of its own.
  assigned = net;
  assigned.scale_demands(0.5);
  expect_solves_like_fresh(assigned, district());
}

}  // namespace
}  // namespace aqua::hydro
