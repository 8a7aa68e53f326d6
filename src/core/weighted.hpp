#pragma once
/// \file weighted.hpp
/// Weighted STKDE. Real surveillance extracts are usually aggregated — one
/// record per (location, day) with a case count — and masking (the paper's
/// Dengue data is masked to street intersections [KCS04]) stacks events on
/// shared coordinates. Weighted estimation processes each distinct record
/// once with weight w_i instead of scattering w_i duplicate points:
///   f(x,y,t) = 1/(W hs^2 ht) * sum_i w_i ks(...) kt(...),  W = sum_i w_i.
/// Identical to duplicating each event w_i times, at 1/w_i the cost.

#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"

namespace stkde::core {

enum class WeightedStrategy {
  kReference,  ///< voxel-based (tests only)
  kSequential, ///< PB-SYM with per-point weighted scale
  kPDSched,    ///< point decomposition + DAG scheduling; a task's load is
               ///< its positive-weight points × (2Hs+1)²(2Ht+1) voxels
};

[[nodiscard]] std::string to_string(WeightedStrategy s);

/// Run weighted STKDE. \p weights must be non-negative, one per point;
/// zero-weight events contribute nothing (but still count toward nothing —
/// W uses the actual weight sum). Throws std::invalid_argument on size
/// mismatch or negative/non-finite weights, and produces an all-zero grid
/// when W == 0.
[[nodiscard]] Result run_weighted(const PointSet& points,
                                  const std::vector<double>& weights,
                                  const DomainSpec& dom, const Params& params,
                                  WeightedStrategy strategy);

}  // namespace stkde::core
