// Differential tests of util::SparseElimination against the dense
// util::solve_linear: on every seeded system both must fail together or
// return the same solution bit for bit (std::bit_cast, not a tolerance).
#include "util/sparse_elimination.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace aqua::util {
namespace {

// A dense row-major system plus the pattern handed to the sparse side: every
// nonzero, and any extra entries the case stores explicitly as +0.0.
struct System {
  std::size_t n = 0;
  std::vector<double> a, b;
  std::vector<SparseElimination::Entry> extra_zeros;
};

void expect_same_as_dense(const System& s) {
  SCOPED_TRACE("n = " + std::to_string(s.n));
  bool dense_ok = true;
  std::vector<double> dense;
  try {
    dense = solve_linear(s.a, s.b);
  } catch (const std::invalid_argument&) {
    dense_ok = false;
  }

  std::vector<SparseElimination::Entry> pattern = s.extra_zeros;
  for (std::size_t r = 0; r < s.n; ++r)
    for (std::size_t c = 0; c < s.n; ++c)
      if (s.a[r * s.n + c] != 0.0) pattern.push_back({r, c});
  SparseElimination sparse;
  sparse.set_pattern(s.n, pattern);
  // Twice on one object: the second solve runs on the grown storage.
  for (int pass = 0; pass < 2; ++pass) {
    sparse.clear();
    for (const SparseElimination::Entry& e : pattern)
      sparse.values()[sparse.slot(e.row, e.col)] = s.a[e.row * s.n + e.col];
    for (std::size_t r = 0; r < s.n; ++r) sparse.rhs()[r] = s.b[r];

    ASSERT_EQ(sparse.solve(), dense_ok) << "pass " << pass;
    if (!dense_ok) continue;
    for (std::size_t i = 0; i < s.n; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sparse.solution()[i]),
                std::bit_cast<std::uint64_t>(dense[i]))
          << "x[" << i << "] = " << sparse.solution()[i] << " vs " << dense[i]
          << ", pass " << pass;
  }
}

// A nonzero value of either sign, never -0.0.
double nonzero(Rng& rng, double lo, double hi) {
  const double v = rng.uniform(lo, hi);
  return rng.uniform() < 0.5 ? -v : v;
}

// Weighted graph Laplacian over n nodes: a random spanning tree plus extra
// edges, assembled edge by edge with += / -= from +0.0 the way the network
// assembles it, and grounded at a few nodes so it is nonsingular.
System laplacian(Rng& rng, std::size_t n, std::size_t extra_edges,
                 std::size_t grounded) {
  System s{n, std::vector<double>(n * n, 0.0), std::vector<double>(n, 0.0), {}};
  const auto edge = [&](std::size_t i, std::size_t j, double g) {
    s.a[i * n + i] += g;
    s.a[j * n + j] += g;
    s.a[i * n + j] -= g;
    s.a[j * n + i] -= g;
  };
  for (std::size_t i = 1; i < n; ++i)
    edge(i, static_cast<std::size_t>(rng.uniform() * static_cast<double>(i)),
         rng.uniform(0.01, 100.0));
  for (std::size_t e = 0; e < extra_edges && n > 1; ++e) {
    const auto i = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    const auto j = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    if (i != j) edge(i, j, rng.uniform(0.01, 100.0));
  }
  for (std::size_t k = 0; k < grounded; ++k) {
    const auto i = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    s.a[i * n + i] += rng.uniform(0.01, 100.0);
    s.b[i] += rng.uniform(0.0, 50.0) * s.a[i * n + i];
  }
  for (double& v : s.b) v -= rng.uniform(0.0, 0.01);
  return s;
}

TEST(SparseElimination, MatchesDenseOnSymmetricLaplacians) {
  Rng rng(2008);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = 1 + static_cast<std::size_t>(rng.uniform() * 60.0);
    const auto extra = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    expect_same_as_dense(laplacian(rng, n, extra, 1 + trial % 3));
  }
}

TEST(SparseElimination, MatchesDenseOnNonSymmetricSystemsThatSwapRows) {
  // Tiny diagonals under larger off-diagonal entries: most columns pivot on
  // a lower row, so the row order diverges from the natural one.
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = 2 + static_cast<std::size_t>(rng.uniform() * 40.0);
    System s{n, std::vector<double>(n * n, 0.0), std::vector<double>(n, 0.0), {}};
    for (std::size_t r = 0; r < n; ++r) {
      s.a[r * n + r] = nonzero(rng, 1e-3, 1e-2);
      for (std::size_t c = 0; c < n; ++c)
        if (c != r && rng.uniform() < 3.0 / static_cast<double>(n))
          s.a[r * n + c] = nonzero(rng, 0.1, 10.0);
      s.b[r] = nonzero(rng, 0.1, 10.0);
    }
    expect_same_as_dense(s);
  }
}

TEST(SparseElimination, MatchesDenseOnExactPivotTiesAndCancellations) {
  // Entries from {±1, ±2, ±4}: equal magnitudes compete for every pivot
  // (the lowest current row must win), and multipliers are exact, so
  // updates often cancel to exactly +0.0 — stored entries that later sit in
  // pivot rows, skipped rows and back substitution. Some draws are singular.
  Rng rng(3);
  constexpr double kValues[] = {1.0, 2.0, 4.0};
  int singular = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = 1 + static_cast<std::size_t>(rng.uniform() * 12.0);
    System s{n, std::vector<double>(n * n, 0.0), std::vector<double>(n, 0.0), {}};
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c)
        if (rng.uniform() < 0.45)
          s.a[r * n + c] = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                           kValues[static_cast<int>(rng.uniform() * 3.0)];
      s.b[r] = static_cast<double>(1 + static_cast<int>(rng.uniform() * 9.0));
    }
    try {
      (void)solve_linear(s.a, s.b);
    } catch (const std::invalid_argument&) {
      ++singular;
    }
    expect_same_as_dense(s);
  }
  EXPECT_GT(singular, 0);  // the draw covers the shared failure path too
}

TEST(SparseElimination, ExplicitZerosInThePatternChangeNothing) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    System s = laplacian(rng, 2 + static_cast<std::size_t>(rng.uniform() * 30.0),
                         3, 2);
    for (int k = 0; k < 10; ++k)
      s.extra_zeros.push_back(
          {static_cast<std::size_t>(rng.uniform() * static_cast<double>(s.n)),
           static_cast<std::size_t>(rng.uniform() * static_cast<double>(s.n))});
    // Drop any extra entry that is actually nonzero: the case is "+0.0 kept".
    std::erase_if(s.extra_zeros, [&](const SparseElimination::Entry& e) {
      return s.a[e.row * s.n + e.col] != 0.0;
    });
    expect_same_as_dense(s);
  }
}

TEST(SparseElimination, FailsWhereDenseFailsOnSingularSystems) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = 2 + static_cast<std::size_t>(rng.uniform() * 30.0);
    // Ungrounded Laplacian: rows sum to zero.
    expect_same_as_dense(laplacian(rng, n, n / 2, 0));
    // A zero row.
    System s = laplacian(rng, n, n / 2, 2);
    const auto r = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    for (std::size_t c = 0; c < n; ++c) s.a[r * n + c] = 0.0;
    expect_same_as_dense(s);
    // Two identical rows.
    System d = laplacian(rng, n, n / 2, 2);
    const std::size_t src = (r + 1) % n;
    for (std::size_t c = 0; c < n; ++c) d.a[r * n + c] = d.a[src * n + c];
    expect_same_as_dense(d);
  }
  // A pivot just under the dense threshold fails, one at it passes.
  expect_same_as_dense(System{1, {0.99e-14}, {1.0}, {}});
  expect_same_as_dense(System{1, {1e-14}, {1.0}, {}});
  expect_same_as_dense(System{0, {}, {}, {}});
}

TEST(SparseElimination, PatternValidation) {
  SparseElimination s;
  const std::vector<SparseElimination::Entry> outside{{0, 2}};
  EXPECT_THROW(s.set_pattern(2, outside), std::out_of_range);
  const std::vector<SparseElimination::Entry> diag{{0, 0}, {1, 1}, {1, 1}};
  s.set_pattern(2, diag);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.values().size(), 2u);  // the duplicate is merged
  EXPECT_EQ(s.slot(1, 1), 1u);
  EXPECT_THROW((void)s.slot(0, 1), std::out_of_range);
  EXPECT_THROW((void)s.slot(2, 0), std::out_of_range);
}

}  // namespace
}  // namespace aqua::util
