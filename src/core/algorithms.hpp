#pragma once
/// \file algorithms.hpp
/// Entry points for the paper's 12 algorithms. Most users should go through
/// the Estimator facade (estimator.hpp); these free functions are the
/// per-algorithm implementations, exposed so benches and tests can target a
/// strategy directly.
///
/// All algorithms compute the same estimate
///   f(x,y,t) = 1/(n hs^2 ht) * sum_i ks((x-xi)/hs,(y-yi)/hs) kt((t-ti)/ht)
/// sampled at voxel centers; they differ only in work, memory, and
/// parallelization (tests/core_equivalence_test.cpp checks bitwise-tolerant
/// equality of all of them against VB).

#include "core/config.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"

namespace stkde::core {

/// Gold standard voxel-based algorithm (paper Algorithm 1).
/// Theta(Gx Gy Gt n) time — only viable on small instances.
[[nodiscard]] Result run_vb(const PointSet& pts, const DomainSpec& dom,
                            const Params& p);

/// VB with bandwidth-sized point blocks: each voxel only tests points from
/// its 3x3x3 neighborhood of blocks (paper §6.2).
[[nodiscard]] Result run_vb_dec(const PointSet& pts, const DomainSpec& dom,
                                const Params& p);

/// Point-based algorithm (Algorithm 2): Theta(Gx Gy Gt + n Hs^2 Ht).
[[nodiscard]] Result run_pb(const PointSet& pts, const DomainSpec& dom,
                            const Params& p);

/// PB with the spatial invariant hoisted (§3.2, PB-DISK).
[[nodiscard]] Result run_pb_disk(const PointSet& pts, const DomainSpec& dom,
                                 const Params& p);

/// PB with the temporal invariant hoisted (§3.2, PB-BAR).
[[nodiscard]] Result run_pb_bar(const PointSet& pts, const DomainSpec& dom,
                                const Params& p);

/// PB with both invariants hoisted (Algorithm 3, PB-SYM).
[[nodiscard]] Result run_pb_sym(const PointSet& pts, const DomainSpec& dom,
                                const Params& p);

/// PB-SYM restructured for the memory hierarchy (PB-TILE,
/// docs/SCATTER_CORE.md): Morton-sorted points, tile-major grid traversal,
/// and a sub-voxel-offset invariant-table cache (Params::tile knobs).
[[nodiscard]] Result run_pb_tile(const PointSet& pts, const DomainSpec& dom,
                                 const Params& p);

/// Domain replication (Algorithm 4): per-thread grid copies + reduction.
/// Throws util::MemoryBudgetExceeded when P grid replicas exceed memory.
[[nodiscard]] Result run_pb_sym_dr(const PointSet& pts, const DomainSpec& dom,
                                   const Params& p);

/// Domain decomposition (Algorithm 5): subdomains processed independently,
/// boundary points replicated into every intersected subdomain.
[[nodiscard]] Result run_pb_sym_dd(const PointSet& pts, const DomainSpec& dom,
                                   const Params& p);

/// Point decomposition (§5): owner binning + a conflict-free DAG of
/// subdomains (detail/point_decomposition.hpp). \p variant selects the
/// coloring and replication: kPBSymPD (Algorithm 6's 8 parity phases),
/// kPBSymPDSched (load-aware greedy coloring + DAG list scheduling),
/// kPBSymPDRep / kPBSymPDSchedRep (critical-path replication with natural /
/// load-aware coloring, the SCHED-REP combination of Fig. 15).
[[nodiscard]] Result run_pb_sym_pd(const PointSet& pts, const DomainSpec& dom,
                                   const Params& p, Algorithm variant);

}  // namespace stkde::core
