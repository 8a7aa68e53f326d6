#pragma once
/// \file point_decomposition.hpp
/// The point-decomposition driver (paper §5) behind PB-SYM-PD, -PD-SCHED,
/// -PD-REP, -PD-SCHED-REP and the weighted and adaptive PD-SCHED strategies:
/// clamp the decomposition so subdomains are >= 2·max Hs / 2Ht wide, bin the
/// points by owner and Morton-sort each bin, sum per-point loads, color the
/// stencil conflict graph, plan replication (REP), and run one task DAG.
///
///   variant        coloring                      replication
///   PD             parity, 8 phases (Alg. 6)     no
///   PD-SCHED       greedy in PdOptions::order    no
///   PD-REP         greedy in natural order       critical-path subdomains
///   PD-SCHED-REP   greedy in PdOptions::order    critical-path subdomains
///
/// Each subdomain has one task that writes the shared grid: its scatter
/// task, or, when replicated r times, the reduce task folding in the halo
/// buffers of its r dependency-free replica tasks. Neighbours' write tasks
/// run low color -> high color; PD instead chains a zero-work join task
/// between consecutive parity colors (Algorithm 6's phase barriers). Each
/// voxel thus accumulates in one fixed order, so with the exact table cache
/// the grid is bitwise independent of P and of the run.
///
/// Per-point work is a compile-time stamp policy (FixedStamp below, the
/// adaptive one in adaptive.cpp); loads are in cylinder voxels throughout.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "grid/reduction.hpp"
#include "kernels/table_cache.hpp"
#include "partition/binning.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "util/memory.hpp"

namespace stkde::core::detail {

/// One task's lane statistics and table-cache counters (the Diagnostics
/// fields of the same names). Each task owns a slot; the driver sums the
/// slots after the run, so no counter is shared between workers.
struct LaneStats {
  std::int64_t cells = 0, span = 0, nonzero = 0, lookups = 0, fills = 0;

  void add_table(const kernels::SpatialInvariant& t) {
    cells += t.cells();
    span += t.span_cells();
    nonzero += t.nonzero();
  }
};

/// A stamp policy: the bandwidths the decomposition must respect, point i's
/// load (0 = skipped), per-task scratch from worker(), and a template
/// stamp(worker, kernel, target, clip, point, i, lanes) scattering point i.
template <typename S>
concept StampPolicy = requires(S& s, const S& cs, std::size_t i) {
  { cs.max_Hs() } -> std::convertible_to<std::int32_t>;
  { cs.Ht() } -> std::convertible_to<std::int32_t>;
  { cs.load(i) } -> std::convertible_to<double>;
  s.worker();
};

/// Fixed bandwidth: the cached scatter_cached stamp with a per-point scale,
/// the run's 1/(n hs² ht) for uniform STKDE or base·w_i for weighted STKDE.
/// Zero-weight points are skipped and carry load 0.
class FixedStamp {
 public:
  struct Worker {
    kernels::TableCachePool::Lease cache;
    kernels::TemporalInvariant kt;
  };

  FixedStamp(const VoxelMapper& map, const Params& p, std::int32_t Hs,
             std::int32_t Ht, double scale,
             const std::vector<double>* weights = nullptr)
      : map_(map), p_(p), Hs_(Hs), Ht_(Ht), scale_(scale),
        cylinder_((2.0 * Hs + 1.0) * (2.0 * Hs + 1.0) * (2.0 * Ht + 1.0)),
        weights_(weights),
        pool_({p.tile.table_quant, p.tile.cache_bytes}, Hs) {}

  [[nodiscard]] std::int32_t max_Hs() const { return Hs_; }
  [[nodiscard]] std::int32_t Ht() const { return Ht_; }
  [[nodiscard]] double load(std::size_t i) const {
    return skipped(i) ? 0.0 : cylinder_;
  }
  /// Tasks lease a warm table cache; the caches persist for the whole run.
  [[nodiscard]] Worker worker() { return {pool_.acquire(), {}}; }

  template <kernels::SeparableKernel K, typename T>
  void stamp(Worker& w, const K& k, DenseGrid3<T>& target, const Extent3& clip,
             const Point& pt, std::size_t i, LaneStats& lanes) const {
    if (skipped(i)) return;
    const double scale = weights_ ? scale_ * (*weights_)[i] : scale_;
    const CachedStamp st =
        scatter_cached(target, clip, map_, k, pt, p_.hs, p_.ht, Hs_, Ht_,
                       scale, *w.cache, w.kt);
    if (!st.stamped) return;
    ++lanes.lookups;
    if (st.filled) {
      ++lanes.fills;
      lanes.add_table(*st.table);
    }
  }

 private:
  [[nodiscard]] bool skipped(std::size_t i) const {
    return weights_ != nullptr && (*weights_)[i] == 0.0;
  }

  const VoxelMapper& map_;
  const Params& p_;
  std::int32_t Hs_, Ht_;
  double scale_;
  double cylinder_;  ///< (2Hs+1)²(2Ht+1) voxels
  const std::vector<double>* weights_;
  kernels::TableCachePool pool_;
};

/// \p variant is one of the four PD Algorithm values; REP reads \p rep.
struct PdOptions {
  std::string name;  ///< Diagnostics::algorithm
  Algorithm variant = Algorithm::kPBSymPDSched;
  DecompRequest decomp;
  sched::ColoringOrder order = sched::ColoringOrder::kLoadDescending;
  sched::ReplicationParams rep;
  int threads = 1;
};

template <StampPolicy Stamp>
Result run_point_decomposition(const PointSet& pts, const VoxelMapper& map,
                               const kernels::KernelVariant& kernel,
                               Stamp& policy, const PdOptions& o) {
  const bool parity = o.variant == Algorithm::kPBSymPD;
  const bool rep = o.variant == Algorithm::kPBSymPDRep ||
                   o.variant == Algorithm::kPBSymPDSchedRep;
  const GridDims d = map.dims();
  const Extent3 whole = Extent3::whole(d);
  Result res;
  res.diag.algorithm = o.name;

  const Decomposition dec =
      Decomposition::clamped(d, o.decomp, policy.max_Hs(), policy.Ht());
  res.diag.decomposition = dec.to_string();
  res.diag.subdomains = dec.count();
  const auto nsub = static_cast<std::size_t>(dec.count());

  PointBins bins;
  {
    util::ScopedPhase bin(res.phases, phase::kBin);
    bins = bin_by_owner(pts, map, dec);
    sort_bins_by_scatter_key(bins, pts, map);
  }

  const sched::StencilGraph g = sched::StencilGraph::of(dec);
  std::vector<double> loads(nsub, 0.0);
  sched::Coloring col;
  std::vector<std::int32_t> factor(nsub, 1);
  std::vector<Extent3> halo(nsub);
  {
    util::ScopedPhase plan(res.phases, phase::kPlan);
    for (std::size_t v = 0; v < nsub; ++v)
      for (const std::uint32_t i : bins.bins[v]) loads[v] += policy.load(i);
    col = parity ? sched::parity_coloring(g)
                 : sched::greedy_coloring(
                       g,
                       o.variant == Algorithm::kPBSymPDRep
                           ? sched::ColoringOrder::kNatural
                           : o.order,
                       loads);
    res.diag.num_colors = col.num_colors;
    res.diag.load_imbalance = imbalance(loads).imbalance;
    if (!rep) {
      const sched::DagMetrics m = sched::critical_path(g, col, loads);
      res.diag.total_work = m.total_work;
      res.diag.critical_path = m.critical_path;
    } else {
      // Replicating a subdomain costs one init plus one reduction of a
      // buffer over its halo (the subdomain expanded by the bandwidth).
      std::vector<double> reduce_costs(nsub);
      for (std::size_t v = 0; v < nsub; ++v) {
        halo[v] = dec.subdomain(static_cast<std::int64_t>(v))
                      .expanded(policy.max_Hs(), policy.Ht())
                      .intersect(whole);
        reduce_costs[v] = 2.0 * static_cast<double>(halo[v].volume());
      }
      sched::ReplicationParams rp = o.rep;
      rp.P = o.threads;
      const sched::ReplicationPlan rplan =
          sched::plan_replication(g, col, loads, reduce_costs, rp);
      factor = rplan.factor;
      res.diag.total_work = rplan.total_work;
      res.diag.critical_path = rplan.final_cp;
      std::uint64_t buf_bytes = 0;
      for (std::size_t v = 0; v < nsub; ++v)
        if (factor[v] > 1)
          buf_bytes += static_cast<std::uint64_t>(factor[v]) *
                       static_cast<std::uint64_t>(halo[v].volume()) *
                       sizeof(float);
      res.diag.replication_factor =
          std::accumulate(factor.begin(), factor.end(), 0.0) /
          static_cast<double>(nsub);
      res.diag.extra_bytes = buf_bytes;
      // Conservative OOM guard: all replica buffers live at once, plus the
      // grid (reproduces the paper's Fig. 14 OOM at low decomposition).
      util::MemoryBudget::instance().require(
          buf_bytes + static_cast<std::uint64_t>(d.voxels()) * sizeof(float));
    }
  }

  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(d);
    res.grid.fill_parallel(0.0f, o.threads);
  }

  util::ScopedPhase compute(res.phases, phase::kCompute);
  std::vector<std::vector<DenseGrid3<float>>> buffers(nsub);
  std::vector<LaneStats> lanes;  // one slot per task, sized before the run
  with_kernel(kernel, [&](const auto& k) {
    sched::DagScheduler dag;
    // Task `id` scatters points [lo, hi) of bin v into target.
    const auto scatter = [&](std::size_t id, DenseGrid3<float>& target,
                             const Extent3& clip, std::size_t v,
                             std::size_t lo, std::size_t hi) {
      auto w = policy.worker();
      const auto& idxs = bins.bins[v];
      for (std::size_t j = lo; j < hi; ++j)
        policy.stamp(w, k, target, clip, pts[idxs[j]], idxs[j], lanes[id]);
    };
    std::vector<std::size_t> write_task(nsub);
    for (std::size_t v = 0; v < nsub; ++v) {
      const std::size_t n = bins.bins[v].size();
      const std::int32_t r = factor[v];
      if (r <= 1) {
        const std::size_t id = dag.task_count();
        write_task[v] = dag.add_task(
            [&, id, v, n] { scatter(id, res.grid, whole, v, 0, n); },
            loads[v]);
        continue;
      }
      buffers[v].resize(static_cast<std::size_t>(r));
      const std::size_t chunk = (n + r - 1) / static_cast<std::size_t>(r);
      const std::size_t first = dag.task_count();  // replica ids are dense
      for (std::int32_t j = 0; j < r; ++j) {
        const std::size_t id = dag.task_count();
        const std::size_t lo = std::min(n, static_cast<std::size_t>(j) * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        dag.add_task(
            [&, id, v, j, lo, hi] {
              DenseGrid3<float>& buf = buffers[v][static_cast<std::size_t>(j)];
              buf.allocate(halo[v]);
              buf.fill(0.0f);
              scatter(id, buf, halo[v], v, lo, hi);
            },
            loads[v] / r);
      }
      write_task[v] = dag.add_task(
          [&, v] {
            for (auto& buf : buffers[v]) accumulate_buffer(res.grid, buf);
            buffers[v].clear();  // free the halo memory promptly
          },
          loads[v]);
      for (std::size_t id = first; id < write_task[v]; ++id)
        dag.add_edge(id, write_task[v]);
    }
    const std::size_t work_tasks = dag.task_count();
    if (parity) {
      // Join task work_tasks + c is the phase barrier after parity color c.
      const auto joins = static_cast<std::size_t>(col.num_colors - 1);
      for (std::size_t c = 0; c < joins; ++c) {
        dag.add_task([] {}, 0.0);
        if (c > 0) dag.add_edge(work_tasks + c - 1, work_tasks + c);
      }
      for (std::size_t v = 0; v < nsub; ++v) {
        const auto c = static_cast<std::size_t>(col.color[v]);
        if (c < joins) dag.add_edge(write_task[v], work_tasks + c);
        if (c > 0) dag.add_edge(work_tasks + c - 1, write_task[v]);
      }
    } else {
      for (std::size_t v = 0; v < nsub; ++v)
        g.for_neighbors(static_cast<std::int64_t>(v), [&](std::int64_t u) {
          const auto su = static_cast<std::size_t>(u);
          if (col.color[v] < col.color[su])
            dag.add_edge(write_task[v], write_task[su]);
        });
    }
    lanes.resize(dag.task_count());
    dag.run(o.threads);
    // Join tasks come last and are left out of task_seconds.
    res.diag.task_seconds.resize(work_tasks);
    for (std::size_t i = 0; i < work_tasks; ++i)
      res.diag.task_seconds[i] = dag.finish_times()[i] - dag.start_times()[i];
  });
  for (const LaneStats& l : lanes) {
    res.diag.table_cells += l.cells;
    res.diag.span_cells += l.span;
    res.diag.table_nonzero += l.nonzero;
    res.diag.table_lookups += l.lookups;
    res.diag.table_fills += l.fills;
  }
  return res;
}

}  // namespace stkde::core::detail
