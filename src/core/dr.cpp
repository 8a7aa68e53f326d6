#include <omp.h>

#include "core/algorithms.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"

namespace stkde::core {

// Algorithm 4 (PB-SYM-DR): every thread owns a full-extent grid replica,
// points are split statically, replicas are summed in thread order at the
// end. Pleasingly parallel in all three phases, but the paper charges it
// Theta(P Gx Gy Gt) extra init, reduce and memory — it loses badly on
// init-heavy instances and runs out of memory on Flu Hr / eBird Hr (Fig. 8).
// The memory budget check still reserves P replicas + the output grid, the
// worst case, so those OOM verdicts are raised as a typed exception before
// any allocation. The replicas are block-sparse (grid/reduction.hpp): only
// the blocks a thread's cylinders cover become resident, are zeroed (on
// first touch, inside the compute phase) and are reduced; the grid is
// bitwise that of dense zeroed replicas.
Result run_pb_sym_dr(const PointSet& pts, const DomainSpec& dom,
                     const Params& p) {
  p.validate();
  const detail::RunSetup s(pts, dom, p);
  const int P = p.resolved_threads();
  Result res;
  res.diag.algorithm = to_string(Algorithm::kPBSymDR);

  const GridDims d = s.map.dims();
  const std::uint64_t grid_bytes =
      static_cast<std::uint64_t>(d.voxels()) * sizeof(float);
  // P replicas + the output grid must fit.
  util::MemoryBudget::instance().require(grid_bytes * (static_cast<std::uint64_t>(P) + 1));

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, P);
  }

  // Replica c belongs to point chunk c; each is allocated, filled and freed
  // by the thread that owns the chunk.
  std::vector<SparseReplica<float>> replicas(static_cast<std::size_t>(P));
  {
    util::ScopedPhase compute(res.phases, phase::kCompute);
    const Extent3 whole = Extent3::whole(d);
    const auto n = static_cast<std::int64_t>(pts.size());
    const std::int64_t chunk = (n + P - 1) / P;
    std::int64_t cells = 0, span = 0, nz = 0;
    detail::with_kernel(p.kernel, [&](const auto& k) {
#pragma omp parallel num_threads(P) reduction(+ : cells, span, nz)
      {
        kernels::SpatialInvariant ks;
        kernels::TemporalInvariant kt;
        for (int c = omp_get_thread_num(); c < P; c += omp_get_num_threads()) {
          SparseReplica<float>& local = replicas[static_cast<std::size_t>(c)];
          local.allocate(d);
          const std::int64_t lo = std::min<std::int64_t>(n, c * chunk);
          const std::int64_t hi = std::min<std::int64_t>(n, lo + chunk);
          for (std::int64_t i = lo; i < hi; ++i) {
            const Point& pt = pts[static_cast<std::size_t>(i)];
            local.touch(detail::clipped_cylinder(s.map, pt, s.Hs, s.Ht, whole));
            if (detail::scatter_sym(local.grid(), whole, s.map, k, pt, p.hs,
                                    p.ht, s.Hs, s.Ht, s.scale, ks, kt)) {
              cells += ks.cells();
              span += ks.span_cells();
              nz += ks.nonzero();
            }
          }
        }
      }
    });
    res.diag.table_cells = cells;
    res.diag.span_cells = span;
    res.diag.table_nonzero = nz;
    for (const auto& r : replicas) res.diag.extra_bytes += r.touched_bytes();
  }

  {
    util::ScopedPhase reduce(res.phases, phase::kReduce);
    const std::int64_t blocks = replicas.front().blocks();
#pragma omp parallel num_threads(P)
    {
      const int nt = omp_get_num_threads();
      const int id = omp_get_thread_num();
      const std::int64_t per = (blocks + nt - 1) / nt;
      const std::int64_t lo = std::min<std::int64_t>(blocks, id * per);
      reduce_touched_blocks(res.grid, replicas, lo, std::min(blocks, lo + per));
#pragma omp barrier
      for (int c = id; c < P; c += nt) replicas[static_cast<std::size_t>(c)].release();
    }
  }
  return res;
}

}  // namespace stkde::core
