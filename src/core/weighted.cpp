#include "core/weighted.hpp"

#include <cmath>
#include <stdexcept>

#include "core/detail/point_decomposition.hpp"

namespace stkde::core {

std::string to_string(WeightedStrategy s) {
  switch (s) {
    case WeightedStrategy::kReference: return "W-STKDE-VB";
    case WeightedStrategy::kSequential: return "W-STKDE-SYM";
    case WeightedStrategy::kPDSched: return "W-STKDE-PD-SCHED";
  }
  return "?";
}

namespace {

double validated_weight_sum(const PointSet& pts,
                            const std::vector<double>& w) {
  if (w.size() != pts.size())
    throw std::invalid_argument("run_weighted: one weight per point required");
  double sum = 0.0;
  for (const double x : w) {
    if (!(x >= 0.0) || !std::isfinite(x))
      throw std::invalid_argument(
          "run_weighted: weights must be finite and >= 0");
    sum += x;
  }
  return sum;
}

Result run_reference(const PointSet& pts, const std::vector<double>& w,
                     double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  Result res;
  res.diag.algorithm = to_string(WeightedStrategy::kReference);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(map.dims());
    res.grid.fill(0.0f);
  }
  if (wsum <= 0.0) return res;
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const GridDims d = map.dims();
  const double inv_hs = 1.0 / p.hs, inv_ht = 1.0 / p.ht;
  const double scale = 1.0 / (wsum * p.hs * p.hs * p.ht);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    for (std::int32_t X = 0; X < d.gx; ++X) {
      const double x = map.x_of(X);
      for (std::int32_t Y = 0; Y < d.gy; ++Y) {
        const double y = map.y_of(Y);
        float* const row = res.grid.row(X, Y);
        for (std::int32_t T = 0; T < d.gt; ++T) {
          const double t = map.t_of(T);
          double sum = 0.0;
          for (std::size_t i = 0; i < pts.size(); ++i) {
            const double ks =
                k.spatial((x - pts[i].x) * inv_hs, (y - pts[i].y) * inv_hs);
            if (ks == 0.0) continue;
            sum += w[i] * ks * k.temporal((t - pts[i].t) * inv_ht);
          }
          row[T] = static_cast<float>(sum * scale);
        }
      }
    }
  });
  return res;
}

Result run_sequential(const PointSet& pts, const std::vector<double>& w,
                      double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  const std::int32_t Hs = dom.spatial_bandwidth_voxels(p.hs);
  const std::int32_t Ht = dom.temporal_bandwidth_voxels(p.ht);
  Result res;
  res.diag.algorithm = to_string(WeightedStrategy::kSequential);
  {
    util::ScopedPhase init(res.phases, phase::kInit);
    res.grid.allocate(map.dims());
    res.grid.fill(0.0f);
  }
  if (wsum <= 0.0) return res;
  util::ScopedPhase compute(res.phases, phase::kCompute);
  const Extent3 whole = Extent3::whole(map.dims());
  const double base = 1.0 / (wsum * p.hs * p.hs * p.ht);
  detail::with_kernel(p.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (w[i] == 0.0) continue;
      detail::scatter_sym(res.grid, whole, map, k, pts[i], p.hs, p.ht, Hs, Ht,
                          base * w[i], ks, kt);
    }
  });
  return res;
}

Result run_pd_sched(const PointSet& pts, const std::vector<double>& w,
                    double wsum, const DomainSpec& dom, const Params& p) {
  const VoxelMapper map(dom);
  // Point i stamps at base·w_i; zero-weight points are skipped (load 0),
  // so W == 0 gives an all-zero grid.
  const double base = wsum > 0.0 ? 1.0 / (wsum * p.hs * p.hs * p.ht) : 0.0;
  detail::FixedStamp stamp(map, p, dom.spatial_bandwidth_voxels(p.hs),
                           dom.temporal_bandwidth_voxels(p.ht), base, &w);
  return detail::run_point_decomposition(
      pts, map, p.kernel, stamp,
      {to_string(WeightedStrategy::kPDSched), Algorithm::kPBSymPDSched,
       p.decomp, p.order, p.rep, p.resolved_threads()});
}

}  // namespace

Result run_weighted(const PointSet& points, const std::vector<double>& weights,
                    const DomainSpec& dom, const Params& params,
                    WeightedStrategy strategy) {
  dom.validate();
  params.validate();
  const double wsum = validated_weight_sum(points, weights);
  switch (strategy) {
    case WeightedStrategy::kReference:
      return run_reference(points, weights, wsum, dom, params);
    case WeightedStrategy::kSequential:
      return run_sequential(points, weights, wsum, dom, params);
    case WeightedStrategy::kPDSched:
      return run_pd_sched(points, weights, wsum, dom, params);
  }
  throw std::invalid_argument("run_weighted: unknown strategy");
}

}  // namespace stkde::core
