// sparse_elimination.hpp — partial-pivot Gaussian elimination on a sparse
// square system that performs exactly the nonzero arithmetic of the dense
// util::solve_linear, so both return bit-identical solutions and fail on the
// same systems (DESIGN.md §15).
//
// The dense routine's only extra work is subtracting f·0 from entries that
// are nonzero or +0.0, which leaves them unchanged; this routine skips it and
// does everything else in the same order: the pivot is the largest |a[r][k]|
// over the rows in their current (swapped) order, ties going to the lowest
// row; a row whose multiplier is exactly 0.0 is skipped; fill-in starts at
// +0.0 and is updated with -= f·v; back substitution accumulates
// acc -= a·x over the nonzero columns in ascending order. The argument holds
// for finite systems without -0.0 entries (assembling by += and -= from
// +0.0 never produces one) whose solution is finite.
//
// Storage is reused across solves: once the rows have grown to the fill a
// pivot sequence needs, assembling and solving again allocate nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aqua::util {

class SparseElimination {
 public:
  struct Entry {
    std::size_t row, col;
  };

  /// Sets an n×n pattern (duplicate entries are merged; entries outside the
  /// pattern are +0.0) and resets every value and the right-hand side to
  /// +0.0. Throws std::out_of_range on an entry outside the matrix.
  void set_pattern(std::size_t n, std::span<const Entry> entries);

  [[nodiscard]] std::size_t size() const { return b_.size(); }

  /// Index of entry (row, col) in values(). Throws std::out_of_range when the
  /// entry is not in the pattern.
  [[nodiscard]] std::size_t slot(std::size_t row, std::size_t col) const;

  /// The system the caller assembles: matrix entries in slot order, and b.
  [[nodiscard]] std::span<double> values() { return val_; }
  [[nodiscard]] std::span<double> rhs() { return b_; }

  /// Resets every matrix entry and the right-hand side to +0.0.
  void clear();

  /// Solves A·x = b, leaving values() and rhs() as assembled. Returns false
  /// where util::solve_linear throws: on a pivot with magnitude below 1e-14.
  [[nodiscard]] bool solve();

  /// x of the last successful solve().
  [[nodiscard]] std::span<const double> solution() const { return x_; }

 private:
  void push(std::size_t row);
  void eliminate(std::size_t row, std::size_t pivot_row, double f);

  // The assembled system: CSR pattern with sorted columns, values, b.
  std::vector<std::size_t> row_start_, col_;
  std::vector<double> val_, b_;

  // Elimination work rows, one segment per row in a shared pool. Row r lives
  // in [beg_[r], end_[r]) inside its segment [seg_[r], seg_[r] + cap_[r]);
  // a row that outgrows its segment moves to a larger one at the pool's end.
  std::vector<std::size_t> seg_, cap_, beg_, end_;
  std::vector<std::size_t> wcol_;
  std::vector<double> wval_, wb_;
  std::vector<std::size_t> merged_col_;
  std::vector<double> merged_val_;

  // Active rows bucketed by their leading column (an intrusive list), and
  // the row order the dense routine's swaps would produce.
  std::vector<std::size_t> bucket_, next_, pos_, row_at_;
  std::vector<double> x_;
};

}  // namespace aqua::util
