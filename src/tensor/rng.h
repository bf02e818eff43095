// Deterministic pseudo-random number generation.
//
// All randomness in the library (parameter init, dropout masks, corpus
// synthesis, negative sampling, data shuffling) flows through Rng so that
// every test and benchmark is reproducible bit-for-bit across platforms.
// The core generator is SplitMix64, which is tiny, fast, and has no
// implementation-defined behavior (unlike std::mt19937 distributions, whose
// outputs differ across standard libraries).
#ifndef DLNER_TENSOR_RNG_H_
#define DLNER_TENSOR_RNG_H_

#include <cstdint>
#include <vector>

#include "tensor/check.h"

namespace dlner {

/// Deterministic SplitMix64 random number generator.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int i = static_cast<int>(v->size()) - 1; i > 0; --i) {
      int j = UniformInt(0, i);
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace dlner

#endif  // DLNER_TENSOR_RNG_H_
