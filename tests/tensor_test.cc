#include "tensor/tensor.h"

#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/arena.h"

namespace dlner {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.size(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ZeroFilledConstruction) {
  Tensor t({2, 3});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  for (int i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0);
}

TEST(TensorTest, UninitializedHasShapeAndSizedConstructionStillZeroes) {
  Tensor t = Tensor::Uninitialized({3, 5});
  EXPECT_EQ(t.shape(), (std::vector<int>{3, 5}));
  EXPECT_EQ(t.size(), 15);
  EXPECT_EQ(Tensor::Uninitialized({0}).size(), 0);
  t.Fill(2.0);   // written before any read
  t = Tensor();  // frees a buffer of nonzero bytes for the next one to reuse
  const Tensor z({3, 5});
  for (int i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 0.0);
}

TEST(TensorTest, ExplicitData) {
  Tensor t({2, 2}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(t.at(0, 0), 1.0);
  EXPECT_EQ(t.at(0, 1), 2.0);
  EXPECT_EQ(t.at(1, 0), 3.0);
  EXPECT_EQ(t.at(1, 1), 4.0);
}

TEST(TensorTest, RowMajorLayout) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0;
  EXPECT_EQ(t[5], 7.0);
  t.at(0, 1) = 3.0;
  EXPECT_EQ(t[1], 3.0);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1.0, 2.0, 5.0});
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.size(), 3);
  EXPECT_EQ(t[2], 5.0);
}

TEST(TensorTest, FullFill) {
  Tensor t = Tensor::Full({3}, 2.5);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t[i], 2.5);
  t.Fill(-1.0);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t[i], -1.0);
}

TEST(TensorTest, AccumulateFrom) {
  Tensor a = Tensor::FromVector({1.0, 2.0});
  Tensor b = Tensor::FromVector({10.0, 20.0});
  a.AccumulateFrom(b);
  EXPECT_EQ(a[0], 11.0);
  EXPECT_EQ(a[1], 22.0);
}

TEST(TensorTest, Norm) {
  Tensor t = Tensor::FromVector({3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.Norm(), 5.0);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({2, 3}).ShapeString(), "[2x3]");
  EXPECT_EQ(Tensor({4}).ShapeString(), "[4]");
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(Tensor({2, 3}).SameShape(Tensor({2, 3})));
  EXPECT_FALSE(Tensor({2, 3}).SameShape(Tensor({3, 2})));
  EXPECT_FALSE(Tensor({6}).SameShape(Tensor({2, 3})));
}

TEST(TensorDeathTest, OutOfRangeAccessAborts) {
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(2, 0), "DLNER_CHECK");
  EXPECT_DEATH(t[4], "DLNER_CHECK");
}

TEST(TensorDeathTest, MismatchedDataSizeAborts) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0}), "DLNER_CHECK");
}

// --- Bump-pointer arena (inference-plan activation buffers) ---------------

TEST(ArenaTest, AllocationsAreDisjointAndWritable) {
  Arena arena;
  Float* a = arena.Alloc(16);
  Float* b = arena.Alloc(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b >= a + 16 || a >= b + 16);  // no overlap
  for (int i = 0; i < 16; ++i) a[i] = 1.0;
  for (int i = 0; i < 16; ++i) b[i] = 2.0;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], 1.0);
}

TEST(ArenaTest, AllocZeroIsZeroFilled) {
  Arena arena;
  Float* a = arena.Alloc(32);
  std::memset(a, 0xff, 32 * sizeof(Float));
  arena.Reset();
  Float* z = arena.AllocZero(32);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(z[i], 0.0) << i;
}

TEST(ArenaTest, ResetReusesBlocksWithoutNewReservation) {
  Arena arena;
  arena.Alloc(100);
  arena.Alloc(200);
  const std::size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int round = 0; round < 5; ++round) {
    arena.Reset();
    arena.Alloc(100);
    arena.Alloc(200);
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
  }
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnBlock) {
  Arena arena;
  const std::size_t big = 4 * Arena::kInitialFloats;
  Float* p = arena.Alloc(big);
  ASSERT_NE(p, nullptr);
  p[0] = 1.0;
  p[big - 1] = 2.0;
  EXPECT_GE(arena.bytes_reserved(), big * sizeof(Float));
}

TEST(ArenaTest, HighWaterTracksPeakLiveBytesAcrossResets) {
  Arena arena;
  arena.Alloc(1000);
  arena.Alloc(500);
  const std::size_t peak = arena.high_water();
  EXPECT_GE(peak, 1500 * sizeof(Float));
  arena.Reset();
  arena.Alloc(10);  // smaller round must not lower the peak
  EXPECT_EQ(arena.high_water(), peak);
  arena.Reset();
  arena.Alloc(2000);
  EXPECT_GE(arena.high_water(), 2000 * sizeof(Float));
}

TEST(ArenaTest, ScopeFreesOnlyItsOwnScratch) {
  Arena arena;
  Float* kept = arena.Alloc(100);
  for (int i = 0; i < 100; ++i) kept[i] = 7.0;
  Float* first = nullptr;
  {
    Arena::Scope scope(&arena);
    first = arena.Alloc(300);
    // Spill into later blocks too: the scope's end must rewind across them.
    for (int i = 0; i < 6; ++i) arena.Alloc(Arena::kInitialFloats / 2);
    for (int i = 0; i < 300; ++i) first[i] = -1.0;
  }
  const std::size_t peak = arena.high_water();
  EXPECT_GE(peak, (400 + 3 * Arena::kInitialFloats) * sizeof(Float));
  const std::size_t reserved = arena.bytes_reserved();
  {
    Arena::Scope scope(&arena);
    EXPECT_EQ(arena.Alloc(300), first);  // the freed scratch is reused
    for (int i = 0; i < 6; ++i) arena.Alloc(Arena::kInitialFloats / 2);
  }
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // no new blocks
  EXPECT_EQ(arena.high_water(), peak);  // same scratch, same peak
  for (int i = 0; i < 100; ++i) EXPECT_EQ(kept[i], 7.0) << i;
  Float* after = arena.Alloc(10);
  EXPECT_TRUE(after >= kept + 100 || after + 10 <= kept);
}

TEST(ArenaTest, ManySmallAllocationsSpanBlocksSafely) {
  Arena arena;
  std::set<Float*> seen;
  std::vector<Float*> ptrs;
  // Enough to force several block spills past kInitialFloats.
  for (int i = 0; i < 200; ++i) {
    Float* p = arena.Alloc(Arena::kInitialFloats / 3);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate pointer at " << i;
    p[0] = static_cast<Float>(i);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ptrs[i][0], static_cast<Float>(i)) << i;
  }
}

}  // namespace
}  // namespace dlner
