#include "util/sparse_elimination.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace aqua::util {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// An index as an iterator offset.
std::ptrdiff_t at(std::size_t i) { return static_cast<std::ptrdiff_t>(i); }
}  // namespace

void SparseElimination::set_pattern(std::size_t n,
                                    std::span<const Entry> entries) {
  std::vector<Entry> sorted(entries.begin(), entries.end());
  for (const Entry& e : sorted)
    if (e.row >= n || e.col >= n)
      throw std::out_of_range("SparseElimination: entry outside the matrix");
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  sorted.erase(std::unique(sorted.begin(), sorted.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.row == b.row && a.col == b.col;
                           }),
               sorted.end());

  row_start_.assign(n + 1, 0);
  col_.clear();
  for (const Entry& e : sorted) {
    ++row_start_[e.row + 1];
    col_.push_back(e.col);
  }
  for (std::size_t r = 0; r < n; ++r) row_start_[r + 1] += row_start_[r];
  val_.assign(col_.size(), 0.0);
  b_.assign(n, 0.0);

  // Every row starts with room for twice its assembled length, and the pool
  // with room for as much again before a grown row makes it reallocate.
  seg_.resize(n);
  cap_.resize(n);
  beg_.resize(n);
  end_.resize(n);
  std::size_t pool = 0;
  for (std::size_t r = 0; r < n; ++r) {
    seg_[r] = pool;
    cap_[r] = 2 * (row_start_[r + 1] - row_start_[r]);
    pool += cap_[r];
  }
  wcol_.clear();
  wval_.clear();
  wcol_.reserve(2 * pool);
  wval_.reserve(2 * pool);
  wcol_.resize(pool);
  wval_.resize(pool);
  wb_.resize(n);
  merged_col_.resize(n);
  merged_val_.resize(n);
  bucket_.resize(n);
  next_.resize(n);
  pos_.resize(n);
  row_at_.resize(n);
  x_.assign(n, 0.0);
}

std::size_t SparseElimination::slot(std::size_t row, std::size_t col) const {
  if (row < size()) {
    const auto first = col_.begin() + at(row_start_[row]);
    const auto last = col_.begin() + at(row_start_[row + 1]);
    const auto it = std::lower_bound(first, last, col);
    if (it != last && *it == col)
      return static_cast<std::size_t>(it - col_.begin());
  }
  throw std::out_of_range("SparseElimination: entry not in the pattern");
}

void SparseElimination::clear() {
  std::fill(val_.begin(), val_.end(), 0.0);
  std::fill(b_.begin(), b_.end(), 0.0);
}

void SparseElimination::push(std::size_t row) {
  if (beg_[row] == end_[row]) return;
  const std::size_t lead = wcol_[beg_[row]];
  next_[row] = bucket_[lead];
  bucket_[lead] = row;
}

void SparseElimination::eliminate(std::size_t row, std::size_t pivot_row,
                                  double f) {
  // Merge row ← row − f·pivot_row over columns beyond the pivot's.
  std::size_t i = beg_[row];
  std::size_t j = beg_[pivot_row] + 1;
  const std::size_t i_end = end_[row];
  const std::size_t j_end = end_[pivot_row];
  std::size_t m = 0;
  while (i < i_end || j < j_end) {
    const std::size_t ci = i < i_end ? wcol_[i] : kNone;
    const std::size_t cj = j < j_end ? wcol_[j] : kNone;
    if (ci < cj) {
      merged_col_[m] = ci;
      merged_val_[m++] = wval_[i++];
    } else if (cj < ci) {
      merged_col_[m] = cj;
      merged_val_[m++] = 0.0 - f * wval_[j++];  // fill-in from +0.0
    } else {
      merged_col_[m] = ci;
      merged_val_[m++] = wval_[i++] - f * wval_[j++];
    }
  }
  if (m > cap_[row]) {
    cap_[row] = std::max(m, 2 * cap_[row]);
    seg_[row] = wcol_.size();
    wcol_.resize(seg_[row] + cap_[row]);
    wval_.resize(seg_[row] + cap_[row]);
  }
  std::copy_n(merged_col_.begin(), m, wcol_.begin() + at(seg_[row]));
  std::copy_n(merged_val_.begin(), m, wval_.begin() + at(seg_[row]));
  beg_[row] = seg_[row];
  end_[row] = seg_[row] + m;
}

bool SparseElimination::solve() {
  const std::size_t n = size();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t first = row_start_[r];
    const std::size_t len = row_start_[r + 1] - first;
    std::copy_n(col_.begin() + at(first), len, wcol_.begin() + at(seg_[r]));
    std::copy_n(val_.begin() + at(first), len, wval_.begin() + at(seg_[r]));
    beg_[r] = seg_[r];
    end_[r] = seg_[r] + len;
    pos_[r] = r;
    row_at_[r] = r;
    bucket_[r] = kNone;
  }
  for (std::size_t r = 0; r < n; ++r) push(r);
  std::copy(b_.begin(), b_.end(), wb_.begin());

  for (std::size_t k = 0; k < n; ++k) {
    // The rows with an entry in column k are exactly bucket k: every active
    // row's earlier columns were eliminated or skipped. Rows outside it hold
    // +0.0 there and can neither win the pivot nor be updated.
    std::size_t p = kNone;
    double best = 0.0;
    for (std::size_t r = bucket_[k]; r != kNone; r = next_[r]) {
      const double mag = std::abs(wval_[beg_[r]]);
      if (p == kNone || mag > best || (mag == best && pos_[r] < pos_[p])) {
        p = r;
        best = mag;
      }
    }
    if (p == kNone || best < 1e-14) return false;

    const double pivot = wval_[beg_[p]];
    for (std::size_t r = bucket_[k]; r != kNone;) {
      const std::size_t next = next_[r];
      if (r != p) {
        const double f = wval_[beg_[r]] / pivot;
        ++beg_[r];  // the column-k residual is never read again
        if (f != 0.0) {
          eliminate(r, p, f);
          wb_[r] -= f * wb_[p];
        }
        push(r);
      }
      r = next;
    }
    const std::size_t displaced = row_at_[k];
    row_at_[pos_[p]] = displaced;
    pos_[displaced] = pos_[p];
    row_at_[k] = p;
    pos_[p] = k;
  }

  for (std::size_t k = n; k-- > 0;) {
    const std::size_t p = row_at_[k];
    double acc = wb_[p];
    for (std::size_t i = beg_[p] + 1; i < end_[p]; ++i)
      acc -= wval_[i] * x_[wcol_[i]];
    x_[k] = acc / wval_[beg_[p]];
  }
  return true;
}

}  // namespace aqua::util
