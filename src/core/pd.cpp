#include "core/algorithms.hpp"
#include "core/detail/point_decomposition.hpp"

namespace stkde::core {

// Point decomposition (§5), all four variants, through the shared driver.
// Tile treatment (docs/SCATTER_CORE.md): Morton-sorted bins, and spatial
// tables from per-worker offset-keyed caches (Params::tile knobs).
Result run_pb_sym_pd(const PointSet& pts, const DomainSpec& dom,
                     const Params& p, Algorithm variant) {
  p.validate();
  const detail::RunSetup s(pts, dom, p);
  detail::FixedStamp stamp(s.map, p, s.Hs, s.Ht, s.scale);
  return detail::run_point_decomposition(
      pts, s.map, p.kernel, stamp,
      {to_string(variant), variant, p.decomp, p.order, p.rep,
       p.resolved_threads()});
}

}  // namespace stkde::core
