#include "grid/reduction.hpp"

#include <algorithm>
#include <stdexcept>

namespace stkde {

template <typename T>
void reduce_touched_blocks(DenseGrid3<T>& dst,
                           const std::vector<SparseReplica<T>>& replicas,
                           std::int64_t block_lo, std::int64_t block_hi) {
  if (dst.padded())
    throw std::invalid_argument("reduce_touched_blocks: padded destination");
  for (const auto& r : replicas)
    if (!(r.grid().extent() == dst.extent()))
      throw std::invalid_argument("reduce_touched_blocks: extent mismatch");
  constexpr std::int64_t kBlock = SparseReplica<T>::kBlock;
  T* const out = dst.data();
  const std::int64_t n = dst.size();
  for (std::int64_t b = block_lo; b < block_hi; ++b) {
    const std::int64_t lo = b * kBlock;
    const std::int64_t hi = std::min(n, lo + kBlock);
    for (const auto& r : replicas) {
      if (!r.touched(b)) continue;
      const T* const in = r.grid().data();
      for (std::int64_t i = lo; i < hi; ++i) out[i] += in[i];
    }
  }
}

template <typename T>
void accumulate_buffer(DenseGrid3<T>& dst, const DenseGrid3<T>& src) {
  const Extent3 region = src.extent().intersect(dst.extent());
  if (region.empty()) return;
  for (std::int32_t X = region.xlo; X < region.xhi; ++X) {
    for (std::int32_t Y = region.ylo; Y < region.yhi; ++Y) {
      T* d = dst.row(X, Y) + (region.tlo - dst.extent().tlo);
      const T* s = src.row(X, Y) + (region.tlo - src.extent().tlo);
      const std::int32_t len = region.nt();
      for (std::int32_t i = 0; i < len; ++i) d[i] += s[i];
    }
  }
}

template void reduce_touched_blocks<float>(
    DenseGrid3<float>&, const std::vector<SparseReplica<float>>&, std::int64_t,
    std::int64_t);
template void accumulate_buffer<float>(DenseGrid3<float>&,
                                       const DenseGrid3<float>&);
template void accumulate_buffer<double>(DenseGrid3<double>&,
                                        const DenseGrid3<double>&);

}  // namespace stkde
