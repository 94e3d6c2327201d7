// 2-D grid view over a shared allocation, plus block decomposition helpers.
//
// Row-major layout; row views are the idiomatic access path (one MMU range
// check per row instead of per element), matching how SUIF-generated code
// walks distributed arrays.
#pragma once

#include <cstddef>
#include <span>

#include "updsm/dsm/node_context.hpp"

namespace updsm::apps {

/// Half-open index range [lo, hi).
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  [[nodiscard]] std::size_t size() const { return hi - lo; }
  [[nodiscard]] bool contains(std::size_t i) const { return i >= lo && i < hi; }
};

/// Block decomposition of `n` items over `parts` owners ("owner computes"):
/// the first (n % parts) owners get one extra item.
[[nodiscard]] inline Range block_range(std::size_t n, int parts, int idx) {
  const auto p = static_cast<std::size_t>(parts);
  const auto i = static_cast<std::size_t>(idx);
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t lo = i * base + (i < extra ? i : extra);
  return Range{lo, lo + base + (i < extra ? 1 : 0)};
}

template <typename T>
class Grid2 {
 public:
  Grid2(dsm::NodeContext& ctx, GlobalAddr base, std::size_t rows,
        std::size_t cols)
      : arr_(ctx.array<T>(base, rows * cols)), rows_(rows), cols_(cols) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Read view of one whole row.
  [[nodiscard]] std::span<const T> row(std::size_t r) const {
    return arr_.read_view(r * cols_, (r + 1) * cols_);
  }
  /// Write view of one whole row (write-traps every page the row touches).
  [[nodiscard]] std::span<T> row_w(std::size_t r) {
    return arr_.write_view(r * cols_, (r + 1) * cols_);
  }
  [[nodiscard]] T at(std::size_t r, std::size_t c) const {
    return arr_.get(r * cols_ + c);
  }
  void set(std::size_t r, std::size_t c, T v) { arr_.set(r * cols_ + c, v); }

 private:
  dsm::SharedArray<T> arr_;
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace updsm::apps
