#include "tensor/rng.h"

#include <vector>

#include <gtest/gtest.h>

namespace dlner {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) {
    int v = rng.UniformInt(0, 4);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 4);
    seen[v]++;
  }
  for (int c : seen) EXPECT_GT(c, 800);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::vector<bool> present(10, false);
  for (int x : v) present[x] = true;
  for (bool p : present) EXPECT_TRUE(p);
}

}  // namespace
}  // namespace dlner
