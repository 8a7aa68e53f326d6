#pragma once
/// \file reduction.hpp
/// Grid reductions: PB-SYM-DR's block-sparse per-thread replicas and their
/// sum into the global grid, and adding a subdomain-halo buffer back into
/// the global grid (PB-SYM-PD-REP's reduce tasks).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "grid/dense_grid.hpp"

namespace stkde {

/// A full-extent, packed grid replica materialized one flat block of kBlock
/// elements at a time. The storage is allocated uninitialized; touch()
/// zeroes a block the first time a write range covers it, and the reduce
/// never reads an untouched block, so pages no write reaches are never
/// faulted in. Only touched blocks hold defined values; every other cell
/// reads as zero by definition. PB-SYM-DR's per-thread replica.
///
/// A per-X-plane count of untouched blocks lets touch() skip a plane whose
/// blocks are all materialized with one load: on dense inputs most planes
/// saturate early and the block map is no longer read.
template <typename T>
class SparseReplica {
 public:
  static constexpr std::int64_t kBlock = 256;

  /// Uninitialized storage for \p dims (checked against the memory budget)
  /// plus an all-untouched block map and plane counts.
  void allocate(const GridDims& dims) {
    grid_.allocate(dims);
    touched_.assign(static_cast<std::size_t>((grid_.size() + kBlock - 1) / kBlock), 0);
    untouched_ = blocks();
    plane_ = grid_.size() / dims.gx;
    plane_untouched_.resize(static_cast<std::size_t>(dims.gx));
    for (std::int64_t x = 0; x < dims.gx; ++x)
      plane_untouched_[static_cast<std::size_t>(x)] =
          ((x + 1) * plane_ - 1) / kBlock - x * plane_ / kBlock + 1;
  }

  /// Frees the storage, the block map and the plane counts.
  void release() {
    grid_ = DenseGrid3<T>{};
    touched_ = {};
    plane_untouched_ = {};
    untouched_ = 0;
  }

  /// Zero, on first touch, every block that a cell of \p e (absolute voxels
  /// inside the extent) lies in. Exact at block granularity: a block is
  /// touched iff it holds a cell of \p e.
  void touch(const Extent3& e) {
    if (e.empty()) return;
    const std::int64_t stride = grid_.row_stride();
    for (std::int32_t X = e.xlo; X < e.xhi; ++X) {
      if (plane_untouched_[static_cast<std::size_t>(X - grid_.extent().xlo)] == 0)
        continue;
      const std::int64_t first = grid_.index(X, e.ylo, e.tlo);
      if (stride <= kBlock) {
        // Rows closer than a block leave no block wholly between two of
        // them, so the plane's whole flat span is exact.
        touch_flat(first, grid_.index(X, e.yhi - 1, e.thi - 1) + 1);
      } else {
        for (std::int32_t r = 0; r < e.ny(); ++r)
          touch_flat(first + r * stride, first + r * stride + e.nt());
      }
    }
  }

  [[nodiscard]] DenseGrid3<T>& grid() { return grid_; }
  [[nodiscard]] const DenseGrid3<T>& grid() const { return grid_; }
  [[nodiscard]] std::int64_t blocks() const {
    return static_cast<std::int64_t>(touched_.size());
  }
  [[nodiscard]] bool touched(std::int64_t block) const {
    return touched_[static_cast<std::size_t>(block)] != 0;
  }
  [[nodiscard]] std::int64_t touched_blocks() const { return blocks() - untouched_; }
  /// Replica memory materialized so far: touched blocks x block bytes.
  [[nodiscard]] std::uint64_t touched_bytes() const {
    return static_cast<std::uint64_t>(touched_blocks()) * kBlock * sizeof(T);
  }

 private:
  /// touch() for the flat element range [lo, hi).
  void touch_flat(std::int64_t lo, std::int64_t hi) {
    for (std::int64_t b = lo / kBlock; b <= (hi - 1) / kBlock; ++b)
      if (touched_[static_cast<std::size_t>(b)] == 0) materialize(b);
  }

  void materialize(std::int64_t b) {
    const std::int64_t lo = b * kBlock, hi = std::min(grid_.size(), lo + kBlock);
    std::fill(grid_.data() + lo, grid_.data() + hi, T(0));
    touched_[static_cast<std::size_t>(b)] = 1;
    --untouched_;
    for (std::int64_t x = lo / plane_; x <= (hi - 1) / plane_; ++x)
      --plane_untouched_[static_cast<std::size_t>(x)];
  }

  DenseGrid3<T> grid_;
  std::vector<std::uint8_t> touched_;
  std::int64_t untouched_ = 0;
  std::int64_t plane_ = 0;  ///< elements per X-plane
  std::vector<std::int64_t> plane_untouched_;
};

/// dst += sum(replicas) over the flat blocks [block_lo, block_hi): each
/// replica's touched blocks are added in vector order, untouched ones are
/// skipped. Values >= 0 on a +0-initialized dst make the result bitwise
/// that of summing dense zero-initialized replicas (adding +0 is exact).
/// Disjoint block ranges may run concurrently. Throws std::invalid_argument
/// when dst is padded or a replica's extent differs from dst's.
template <typename T>
void reduce_touched_blocks(DenseGrid3<T>& dst,
                           const std::vector<SparseReplica<T>>& replicas,
                           std::int64_t block_lo, std::int64_t block_hi);

/// dst(region) += src(region), where region = src.extent() clipped to
/// dst.extent(). Single-threaded: the caller (a DAG reduce task) owns the
/// region exclusively by construction.
template <typename T>
void accumulate_buffer(DenseGrid3<T>& dst, const DenseGrid3<T>& src);

extern template void reduce_touched_blocks<float>(
    DenseGrid3<float>&, const std::vector<SparseReplica<float>>&, std::int64_t,
    std::int64_t);
extern template void accumulate_buffer<float>(DenseGrid3<float>&,
                                              const DenseGrid3<float>&);
extern template void accumulate_buffer<double>(DenseGrid3<double>&,
                                               const DenseGrid3<double>&);

}  // namespace stkde
