#include "tensor/rng.h"

namespace dlner {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int Rng::UniformInt(int lo, int hi) {
  DLNER_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  return lo + static_cast<int>(Next() % range);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

}  // namespace dlner
