#include "grid/reduction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "util/rng.hpp"

namespace stkde {
namespace {

using Replica = SparseReplica<float>;
constexpr std::int64_t kBlock = Replica::kBlock;

/// A replica whose every cell first holds garbage, as recycled memory does,
/// then has the blocks of \p touched materialized and filled from \p seed.
Replica random_replica(const GridDims& d, const std::vector<Extent3>& touched,
                       std::uint64_t seed) {
  Replica r;
  r.allocate(d);
  std::fill(r.grid().data(), r.grid().data() + r.grid().size(), 1e30f);
  for (const Extent3& e : touched) r.touch(e);
  util::Xoshiro256 rng(seed);
  for (std::int64_t b = 0; b < r.blocks(); ++b)
    for (std::int64_t i = b * kBlock; i < std::min(r.grid().size(), (b + 1) * kBlock); ++i)
      if (r.touched(b)) r.grid().data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return r;
}

/// Cell i of the dense sum: dst[i] plus every replica in order, an
/// untouched block contributing nothing.
float in_order_sum(float dst, const std::vector<Replica>& reps, std::int64_t i) {
  for (const Replica& r : reps)
    if (r.touched(i / kBlock)) dst += r.grid().data()[i];
  return dst;
}

TEST(SparseReplica, TouchMaterializesExactlyTheCoveredBlocks) {
  // Short T-rows (stride <= block) are marked one X-plane span at a time,
  // long ones (stride > block) row by row; X-planes smaller than a block
  // share blocks, so their untouched counts must be kept across planes.
  // Touches accumulate: after each, the touched blocks are exactly those
  // holding a cell of some extent so far, and only they were zeroed.
  for (const GridDims d : {GridDims{6, 9, 20}, GridDims{5, 4, 700},
                           GridDims{40, 3, 20}, GridDims{7, 16, 16}}) {
    Replica r;
    r.allocate(d);
    std::fill(r.grid().data(), r.grid().data() + r.grid().size(), 7.0f);
    std::vector<bool> expect(static_cast<std::size_t>(r.blocks()), false);
    std::vector<Extent3> extents{Extent3{1, 3, 2, 5, 3, 9}, Extent3{4, 5, 0, 4, 0, 20},
                                 Extent3{0, 1, 3, 4, 19, 20}, Extent3{2, 5, 1, 3, 250, 262}};
    util::Xoshiro256 rng(11);
    for (int i = 0; i < 60; ++i) {
      const auto pick = [&](std::int32_t n) {
        return static_cast<std::int32_t>(rng.uniform(0.0, static_cast<double>(n)));
      };
      const std::int32_t x = pick(d.gx), y = pick(d.gy), t = pick(d.gt);
      extents.push_back(Extent3{x, x + 1 + pick(3), y, y + 1 + pick(3), t, t + 1 + pick(9)});
    }
    for (const Extent3& e : extents) {
      const Extent3 clip = e.intersect(Extent3::whole(d));
      r.touch(clip);
      for (std::int32_t X = clip.xlo; X < clip.xhi; ++X)
        for (std::int32_t Y = clip.ylo; Y < clip.yhi; ++Y)
          for (std::int32_t T = clip.tlo; T < clip.thi; ++T)
            expect[static_cast<std::size_t>(r.grid().index(X, Y, T) / kBlock)] = true;
      std::int64_t count = 0;
      for (std::int64_t b = 0; b < r.blocks(); ++b) {
        ASSERT_EQ(r.touched(b), expect[static_cast<std::size_t>(b)]) << "block " << b;
        count += r.touched(b) ? 1 : 0;
        for (std::int64_t i = b * kBlock; i < std::min(r.grid().size(), (b + 1) * kBlock); ++i)
          ASSERT_EQ(r.grid().data()[i], r.touched(b) ? 0.0f : 7.0f) << "cell " << i;
      }
      ASSERT_EQ(r.touched_blocks(), count);
      ASSERT_EQ(r.touched_bytes(), static_cast<std::uint64_t>(count) * kBlock * sizeof(float));
    }
  }
}

TEST(SparseReplica, SecondTouchKeepsWrittenValues) {
  const GridDims d{4, 4, 40};
  Replica r;
  r.allocate(d);
  r.touch(Extent3{1, 2, 1, 2, 0, 40});
  r.grid().at(1, 1, 5) = 3.0f;
  r.touch(Extent3{0, 4, 0, 4, 0, 40});
  EXPECT_EQ(r.grid().at(1, 1, 5), 3.0f);
  EXPECT_EQ(r.touched_blocks(), r.blocks());
  r.release();
  EXPECT_FALSE(r.grid().allocated());
  EXPECT_EQ(r.blocks(), 0);
}

TEST(ReduceTouchedBlocks, SumsTouchedBlocksInReplicaOrder) {
  const GridDims d{6, 7, 30};  // 1260 cells: 5 blocks, the last one short
  std::vector<Replica> reps;
  reps.push_back(random_replica(d, {Extent3::whole(d)}, 1));
  reps.push_back(random_replica(d, {Extent3{0, 2, 0, 7, 0, 30}}, 2));
  reps.push_back(random_replica(d, {Extent3{4, 6, 3, 5, 0, 30}}, 3));
  // Cells where order decides the float result: (1e8 + 1) - 1e8 == 0.
  reps[0].grid().at(0, 0, 0) = 1e8f;
  reps[1].grid().at(0, 0, 0) = 1.0f;
  reps[2].touch(Extent3{0, 1, 0, 1, 0, 1});
  reps[2].grid().at(0, 0, 0) = -1e8f;
  DenseGrid3<float> dst(d);
  dst.fill(0.5f);
  reduce_touched_blocks(dst, reps, 0, reps.front().blocks());
  EXPECT_EQ(dst.at(0, 0, 0), in_order_sum(0.5f, reps, 0));
  EXPECT_EQ(dst.at(0, 0, 0), 0.0f);
  for (std::int64_t i = 0; i < dst.size(); ++i)
    ASSERT_EQ(dst.data()[i], in_order_sum(0.5f, reps, i)) << "cell " << i;
}

TEST(ReduceTouchedBlocks, EmptyReplicaListIsNoop) {
  DenseGrid3<float> dst(Extent3{0, 2, 0, 2, 0, 2});
  dst.fill(5.0f);
  reduce_touched_blocks<float>(dst, {}, 0, 1);
  EXPECT_DOUBLE_EQ(dst.sum(), 40.0);
}

TEST(ReduceTouchedBlocks, BlockSplitDoesNotChangeResult) {
  // Disjoint block ranges on concurrent threads give the one-range bits.
  const GridDims d{7, 5, 90};
  std::vector<Replica> reps;
  reps.push_back(random_replica(d, {Extent3{0, 7, 0, 5, 0, 45}}, 4));
  reps.push_back(random_replica(d, {Extent3{2, 6, 1, 4, 30, 90}}, 5));
  const std::int64_t blocks = reps.front().blocks();
  DenseGrid3<float> one(d), split(d);
  one.fill(0.0f);
  split.fill(0.0f);
  reduce_touched_blocks(one, reps, 0, blocks);
  const int parts = 4;
  const std::int64_t per = (blocks + parts - 1) / parts;
  std::vector<std::thread> workers;
  for (int t = 0; t < parts; ++t)
    workers.emplace_back([&, t] {
      const std::int64_t lo = std::min(blocks, t * per);
      reduce_touched_blocks(split, reps, lo, std::min(blocks, lo + per));
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(std::memcmp(one.data(), split.data(), one.bytes()), 0);
  EXPECT_GT(one.max_value(), 0.0f);
}

TEST(ReduceTouchedBlocks, ShortLastBlockIsReducedWithinTheGrid) {
  const GridDims d{3, 5, 37};  // 555 cells: blocks of 256, 256 and 43
  std::vector<Replica> reps(2);
  for (Replica& r : reps) {
    r.allocate(d);
    r.touch(Extent3{2, 3, 4, 5, 36, 37});
    r.grid().at(2, 4, 36) = 1.5f;
  }
  ASSERT_EQ(reps[0].blocks(), 3);
  EXPECT_EQ(reps[0].touched_blocks(), 1);
  EXPECT_TRUE(reps[0].touched(2));
  DenseGrid3<float> dst(d);
  dst.fill(0.0f);
  reduce_touched_blocks(dst, reps, 0, 3);
  EXPECT_EQ(dst.at(2, 4, 36), 3.0f);
  EXPECT_DOUBLE_EQ(dst.sum(), 3.0);
}

TEST(ReduceTouchedBlocks, RejectsMismatchedExtent) {
  DenseGrid3<float> dst(Extent3{0, 2, 0, 2, 0, 2});
  std::vector<Replica> reps(1);
  reps[0].allocate(GridDims{3, 2, 2});
  EXPECT_THROW(reduce_touched_blocks(dst, reps, 0, 1), std::invalid_argument);
}

TEST(ReduceTouchedBlocks, RejectsPaddedDestination) {
  DenseGrid3<float> dst;
  dst.allocate(GridDims{3, 3, 5}, RowPad::kCacheLine);
  ASSERT_TRUE(dst.padded());
  std::vector<Replica> reps(1);
  reps[0].allocate(GridDims{3, 3, 5});
  EXPECT_THROW(reduce_touched_blocks(dst, reps, 0, 1), std::invalid_argument);
}

TEST(AccumulateBuffer, AddsOverlapRegionOnly) {
  DenseGrid3<float> dst(Extent3{0, 10, 0, 10, 0, 10});
  dst.fill(0.0f);
  DenseGrid3<float> buf(Extent3{8, 12, 8, 12, 8, 12});  // partially outside
  buf.fill(1.0f);
  accumulate_buffer(dst, buf);
  // Inside the overlap [8,10)^3 every cell gained 1.
  EXPECT_FLOAT_EQ(dst.at(9, 9, 9), 1.0f);
  EXPECT_FLOAT_EQ(dst.at(8, 8, 8), 1.0f);
  // Outside stays 0.
  EXPECT_FLOAT_EQ(dst.at(7, 9, 9), 0.0f);
  EXPECT_FLOAT_EQ(dst.at(9, 7, 9), 0.0f);
  EXPECT_FLOAT_EQ(dst.at(9, 9, 7), 0.0f);
  EXPECT_DOUBLE_EQ(dst.sum(), 8.0);  // 2*2*2 overlap
}

TEST(AccumulateBuffer, RespectsBufferValues) {
  DenseGrid3<float> dst(Extent3{0, 4, 0, 4, 0, 4});
  dst.fill(0.5f);
  DenseGrid3<float> buf(Extent3{1, 3, 1, 3, 1, 3});
  buf.fill(0.0f);
  buf.at(2, 2, 2) = 7.0f;
  accumulate_buffer(dst, buf);
  EXPECT_FLOAT_EQ(dst.at(2, 2, 2), 7.5f);
  EXPECT_FLOAT_EQ(dst.at(1, 1, 1), 0.5f);
}

TEST(AccumulateBuffer, DisjointBufferIsNoop) {
  DenseGrid3<float> dst(Extent3{0, 4, 0, 4, 0, 4});
  dst.fill(1.0f);
  DenseGrid3<float> buf(Extent3{10, 12, 10, 12, 10, 12});
  buf.fill(100.0f);
  accumulate_buffer(dst, buf);
  EXPECT_DOUBLE_EQ(dst.sum(), 64.0);
}

TEST(AccumulateBuffer, DoubleSpecializationWorks) {
  DenseGrid3<double> dst(Extent3{0, 2, 0, 2, 0, 2});
  dst.fill(0.0);
  DenseGrid3<double> buf(Extent3{0, 2, 0, 2, 0, 2});
  buf.fill(0.25);
  accumulate_buffer(dst, buf);
  EXPECT_DOUBLE_EQ(dst.sum(), 2.0);
}

}  // namespace
}  // namespace stkde
