#include "support/params.h"

#include <cstddef>
#include <vector>

namespace dlner::testsup {

int ParameterCount(const Module& module) {
  int n = 0;
  for (const Var& p : module.Parameters()) n += p->value.size();
  return n;
}

std::uint64_t Fingerprint(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
  };
  for (int d : t.shape()) mix(&d, sizeof(d));
  mix(t.data(), static_cast<std::size_t>(t.size()) * sizeof(Float));
  return h;
}

}  // namespace dlner::testsup
