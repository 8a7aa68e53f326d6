// Behavioral contracts beyond numerical equality: phase accounting,
// diagnostics, and the strategy-specific structures the paper describes.

#include <gtest/gtest.h>

#include <cstring>

#include "core/adaptive.hpp"
#include "core/detail/common.hpp"
#include "core/detail/scatter.hpp"
#include "core/weighted.hpp"
#include "grid/reduction.hpp"
#include "helpers.hpp"

namespace stkde {
namespace {

using testing::TinyInstance;
using testing::make_tiny;

TEST(Phases, PointBasedAlgorithmsReportInitAndCompute) {
  TinyInstance t = make_tiny(100, 3, 2);
  for (const Algorithm a : {Algorithm::kPB, Algorithm::kPBSym}) {
    const Result r = estimate(t.points, t.domain, t.params, a);
    EXPECT_GT(r.phases.seconds(phase::kInit), 0.0) << to_string(a);
    EXPECT_GT(r.phases.seconds(phase::kCompute), 0.0) << to_string(a);
    EXPECT_GT(r.total_seconds(), 0.0);
  }
}

TEST(Phases, DrReportsReducePhase) {
  TinyInstance t = make_tiny(100, 3, 2);
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDR);
  EXPECT_GT(r.phases.seconds(phase::kReduce), 0.0);
}

TEST(Phases, DecomposedAlgorithmsReportBinPhase) {
  TinyInstance t = make_tiny(100, 2, 1);
  for (const Algorithm a : {Algorithm::kPBSymDD, Algorithm::kPBSymPD,
                            Algorithm::kPBSymPDSched, Algorithm::kPBSymPDRep}) {
    const Result r = estimate(t.points, t.domain, t.params, a);
    EXPECT_GT(r.phases.seconds(phase::kBin), 0.0) << to_string(a);
  }
}

TEST(Diagnostics, AlgorithmNamesArePaperNames) {
  TinyInstance t = make_tiny(20, 2, 1);
  EXPECT_EQ(estimate(t.points, t.domain, t.params, Algorithm::kPBSym)
                .diag.algorithm,
            "PB-SYM");
  EXPECT_EQ(estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSchedRep)
                .diag.algorithm,
            "PB-SYM-PD-SCHED-REP");
}

TEST(Diagnostics, DdReportsReplicationFactorAtLeastOne) {
  TinyInstance t = make_tiny(100, 3, 2);
  t.params.decomp = {4, 4, 4};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD);
  EXPECT_GE(r.diag.replication_factor, 1.0);
  EXPECT_GT(r.diag.subdomains, 1);
  EXPECT_FALSE(r.diag.decomposition.empty());
}

TEST(Diagnostics, DdReplicationGrowsWithDecomposition) {
  TinyInstance t = make_tiny(300, 4, 3);
  t.params.decomp = {2, 2, 2};
  const double r2 = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD)
                        .diag.replication_factor;
  t.params.decomp = {6, 6, 6};
  const double r6 = estimate(t.points, t.domain, t.params, Algorithm::kPBSymDD)
                        .diag.replication_factor;
  EXPECT_GE(r6, r2);  // finer cuts replicate more (paper Fig. 9)
}

TEST(Diagnostics, PdUsesAtMost8Colors) {
  TinyInstance t = make_tiny(100, 2, 1);
  t.params.decomp = {4, 4, 4};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymPD);
  EXPECT_GE(r.diag.num_colors, 1);
  EXPECT_LE(r.diag.num_colors, 8);
  EXPECT_GE(r.diag.total_work, r.diag.critical_path);
}

TEST(Diagnostics, PdRespectsMinimumSubdomainRule) {
  TinyInstance t = make_tiny(50, 6, 4);  // large bandwidth on a 24x20x16 grid
  t.params.decomp = {8, 8, 8};
  const Result r = estimate(t.points, t.domain, t.params, Algorithm::kPBSymPD);
  // 2Hs = 12 on a 24-voxel axis allows at most 2 parts.
  EXPECT_LE(r.diag.subdomains, 2 * 1 * 1 + 6);  // a<=2, b<=1, c<=1 -> <=2
}

TEST(Diagnostics, SchedColoringIsSmallAndTaskTimesRecorded) {
  TinyInstance t = make_tiny(200, 2, 1);
  t.params.decomp = {4, 4, 4};
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSched);
  EXPECT_GE(r.diag.num_colors, 1);
  EXPECT_LE(r.diag.num_colors, 27);
  EXPECT_EQ(r.diag.task_seconds.size(),
            static_cast<std::size_t>(r.diag.subdomains));
}

TEST(Diagnostics, RepReplicatesUnderHotSpot) {
  // All mass in one subdomain: the critical path is that one task, so REP
  // must replicate it to meet the T1/(2P) target.
  TinyInstance t = make_tiny(1, 2, 1);
  t.points = data::generate_degenerate(t.domain, 400);
  t.params.decomp = {4, 4, 4};
  t.params.threads = 4;
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep);
  EXPECT_GT(r.diag.replication_factor, 1.0);
  EXPECT_GT(r.diag.extra_bytes, 0u);
  // Expanded DAG has more tasks than subdomains.
  EXPECT_GT(r.diag.task_seconds.size(),
            static_cast<std::size_t>(r.diag.subdomains));
}

TEST(Diagnostics, RepWithoutImbalanceDoesNotReplicate) {
  TinyInstance t = make_tiny(1, 1, 1);
  t.points = data::generate_uniform(t.domain, 600, 5);
  t.params.decomp = {3, 3, 3};
  t.params.threads = 1;  // T1/(2P) = T1/2 is an easy target
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDRep);
  EXPECT_DOUBLE_EQ(r.diag.replication_factor, 1.0);
  EXPECT_EQ(r.diag.extra_bytes, 0u);
}

TEST(Estimator, FacadeAndFreeFunctionAgree) {
  TinyInstance t = make_tiny(80, 3, 2);
  const Estimator est(Algorithm::kPBSym, t.params);
  const Result a = est.run(t.points, t.domain);
  const Result b = estimate(t.points, t.domain, t.params, Algorithm::kPBSym);
  EXPECT_DOUBLE_EQ(a.grid.max_abs_diff(b.grid), 0.0);
  EXPECT_EQ(est.algorithm(), Algorithm::kPBSym);
}

TEST(Estimator, ValidatesParamsAtConstruction) {
  Params bad;
  bad.hs = -1.0;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
  bad.hs = 1.0;
  bad.ht = 0.0;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
  bad.ht = 1.0;
  bad.threads = -2;
  EXPECT_THROW(Estimator(Algorithm::kPBSym, bad), std::invalid_argument);
}

TEST(Estimator, ValidatesDomainAtRun) {
  TinyInstance t = make_tiny(10, 2, 1);
  DomainSpec bad = t.domain;
  bad.sres = 0.0;
  const Estimator est(Algorithm::kPB, t.params);
  EXPECT_THROW((void)est.run(t.points, bad), std::invalid_argument);
}

TEST(AlgorithmNames, RoundTrip) {
  for (const Algorithm a : all_algorithms())
    EXPECT_EQ(algorithm_by_name(to_string(a)), a);
  EXPECT_THROW((void)algorithm_by_name("PB-NOPE"), std::invalid_argument);
}

TEST(AlgorithmNames, ParallelClassification) {
  EXPECT_FALSE(is_parallel(Algorithm::kVB));
  EXPECT_FALSE(is_parallel(Algorithm::kPBSym));
  EXPECT_TRUE(is_parallel(Algorithm::kPBSymDR));
  EXPECT_TRUE(is_parallel(Algorithm::kPBSymPDSchedRep));
}

TEST(ThreadCounts, MoreThreadsThanTasksIsFine) {
  TinyInstance t = make_tiny(40, 2, 1);
  t.params.threads = 16;
  t.params.decomp = {2, 1, 1};
  const Result r =
      estimate(t.points, t.domain, t.params, Algorithm::kPBSymPDSched);
  const Result ref = core::run_vb(t.points, t.domain, t.params);
  EXPECT_LE(r.grid.max_abs_diff(ref.grid), testing::grid_tolerance(ref.grid));
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  // The PD family orders every pair of tasks that can write one voxel, so
  // each voxel accumulates in one fixed order: repeated runs and any P give
  // the same bits. The hot-spot instance puts all mass in one subdomain, so
  // the REP variants really replicate (replica buffers + reduce tasks).
  TinyInstance tiny = make_tiny(120, 3, 2);
  TinyInstance hot = make_tiny(1, 2, 1);
  hot.points = data::generate_degenerate(hot.domain, 400);
  hot.params.decomp = {4, 4, 4};
  hot.params.threads = 4;
  for (const TinyInstance* t : {&tiny, &hot}) {
    for (const Algorithm a :
         {Algorithm::kPBSym, Algorithm::kPBSymDR, Algorithm::kPBSymDD,
          Algorithm::kPBSymPD, Algorithm::kPBSymPDSched, Algorithm::kPBSymPDRep,
          Algorithm::kPBSymPDSchedRep}) {
      const Result r1 = estimate(t->points, t->domain, t->params, a);
      const Result r2 = estimate(t->points, t->domain, t->params, a);
      EXPECT_DOUBLE_EQ(r1.grid.max_abs_diff(r2.grid), 0.0) << to_string(a);
      if (t == &hot && (a == Algorithm::kPBSymPDRep ||
                        a == Algorithm::kPBSymPDSchedRep)) {
        EXPECT_GT(r1.diag.replication_factor, 1.0) << to_string(a);
      }
    }
  }
}

// Algorithm 4 with dense replicas: each zero-filled, the same static
// (n+P-1)/P point chunks, scatter_sym, summed into a zeroed grid in thread
// order 0..P-1. PB-SYM-DR's block-sparse replicas must give these bits.
DensityGrid dense_dr_reference(const TinyInstance& t, int P) {
  const core::detail::RunSetup s(t.points, t.domain, t.params);
  const GridDims d = s.map.dims();
  const Extent3 whole = Extent3::whole(d);
  const auto n = static_cast<std::int64_t>(t.points.size());
  const std::int64_t chunk = (n + P - 1) / P;
  DensityGrid out(d);
  out.fill(0.0f);
  core::detail::with_kernel(t.params.kernel, [&](const auto& k) {
    kernels::SpatialInvariant ks;
    kernels::TemporalInvariant kt;
    for (std::int64_t c = 0; c < P; ++c) {
      DensityGrid rep(d);
      rep.fill(0.0f);
      const std::int64_t lo = std::min(n, c * chunk), hi = std::min(n, lo + chunk);
      for (std::int64_t i = lo; i < hi; ++i)
        core::detail::scatter_sym(rep, whole, s.map, k,
                                  t.points[static_cast<std::size_t>(i)], t.params.hs,
                                  t.params.ht, s.Hs, s.Ht, s.scale, ks, kt);
      for (std::int64_t j = 0; j < out.size(); ++j) out.data()[j] += rep.data()[j];
    }
  });
  return out;
}

TEST(Determinism, DrMatchesDenseReplicaReference) {
  TinyInstance tiny = make_tiny(400, 3, 2);  // T-rows shorter than a block
  TinyInstance long_rows = make_tiny(1, 1, 2);  // T-rows longer than a block
  long_rows.domain = DomainSpec{0.0, 0.0, 0.0, 30.0, 20.0, 700.0, 1.0, 1.0};
  data::ClusterConfig cfg;
  cfg.n_points = 300;
  cfg.seed = 3;
  long_rows.points = data::generate_clustered(long_rows.domain, cfg);
  TinyInstance hot = make_tiny(1, 2, 1);
  hot.points = data::generate_degenerate(hot.domain, 400);
  TinyInstance none = make_tiny(1, 3, 2);
  none.points.clear();
  TinyInstance few = make_tiny(3, 3, 2);  // n < P for P >= 4
  const std::vector<std::pair<const char*, TinyInstance*>> cases{
      {"tiny", &tiny}, {"long_rows", &long_rows}, {"hot", &hot},
      {"n=0", &none}, {"n<P", &few}};
  // Two rounds: the second reuses the first's freed, non-zero replicas, so
  // a block read before its first-touch zeroing shows up as wrong bits.
  for (int round = 0; round < 2; ++round) {
    for (const auto& [name, t] : cases) {
      for (const int P : {1, 2, 3, 4, 7}) {
        t->params.threads = P;
        const Result r = estimate(t->points, t->domain, t->params, Algorithm::kPBSymDR);
        const DensityGrid ref = dense_dr_reference(*t, P);
        ASSERT_TRUE(r.grid.extent() == ref.extent());
        EXPECT_EQ(std::memcmp(r.grid.data(), ref.data(), ref.bytes()), 0)
            << name << " P=" << P << " round " << round;
        const auto blocks = static_cast<std::uint64_t>(
            (ref.size() + SparseReplica<float>::kBlock - 1) / SparseReplica<float>::kBlock);
        EXPECT_LE(r.diag.extra_bytes, static_cast<std::uint64_t>(P) * blocks *
                                          SparseReplica<float>::kBlock * sizeof(float))
            << name << " P=" << P;
        if (t->points.empty()) {
          EXPECT_EQ(r.diag.extra_bytes, 0U) << name << " P=" << P;
        } else {
          EXPECT_GT(ref.max_value(), 0.0f) << name;
          EXPECT_GT(r.diag.extra_bytes, 0U) << name << " P=" << P;
        }
      }
    }
  }
}

TEST(Determinism, PointDecompositionIsThreadCountInvariant) {
  TinyInstance t = make_tiny(120, 3, 2);
  t.params.decomp = {4, 4, 2};
  for (const Algorithm a : {Algorithm::kPBSymPD, Algorithm::kPBSymPDSched}) {
    t.params.threads = 1;
    const Result serial = estimate(t.points, t.domain, t.params, a);
    for (const int P : {2, 4}) {
      t.params.threads = P;
      const Result r = estimate(t.points, t.domain, t.params, a);
      EXPECT_DOUBLE_EQ(r.grid.max_abs_diff(serial.grid), 0.0)
          << to_string(a) << " P=" << P;
    }
  }
}

TEST(Determinism, WeightedAndAdaptivePdSchedAreBitIdentical) {
  TinyInstance t = make_tiny(120, 3, 2);
  t.params.decomp = {4, 4, 2};
  std::vector<double> w(t.points.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = static_cast<double>(i % 4);  // includes zero weights
  core::AdaptiveParams ap;
  ap.hs.resize(t.points.size());
  for (std::size_t i = 0; i < ap.hs.size(); ++i)
    ap.hs[i] = 1.5 + static_cast<double>(i % 3);
  ap.ht = 2.0;
  ap.decomp = t.params.decomp;
  std::vector<DensityGrid> weighted, adaptive;
  for (const int P : {1, 1, 2, 4}) {
    t.params.threads = P;
    ap.threads = P;
    weighted.push_back(core::run_weighted(t.points, w, t.domain, t.params,
                                          core::WeightedStrategy::kPDSched)
                           .grid);
    adaptive.push_back(core::run_adaptive(t.points, t.domain, ap,
                                          core::AdaptiveStrategy::kPDSched)
                           .grid);
  }
  EXPECT_GT(weighted[0].max_value(), 0.0f);
  EXPECT_GT(adaptive[0].max_value(), 0.0f);
  for (std::size_t i = 1; i < weighted.size(); ++i) {
    EXPECT_DOUBLE_EQ(weighted[i].max_abs_diff(weighted[0]), 0.0) << i;
    EXPECT_DOUBLE_EQ(adaptive[i].max_abs_diff(adaptive[0]), 0.0) << i;
  }
}

}  // namespace
}  // namespace stkde
