#include <memory>

#include <gtest/gtest.h>

#include "encoders/cnn.h"
#include "encoders/encoder.h"
#include "encoders/rnn_encoder.h"
#include "encoders/transformer.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"

namespace dlner::encoders {
namespace {

Var RandomInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (int i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-1.0, 1.0);
  return Parameter(std::move(t));
}

// Encodes `x` as a sentence of x.rows() unpunctuated placeholder tokens.
Var EncodeWords(const ContextEncoder& enc, const Var& x) {
  return enc.Encode(x, std::vector<std::string>(x->value.rows(), "w"),
                    /*training=*/false);
}

std::unique_ptr<ContextEncoder> MakeEncoder(const std::string& kind,
                                            int in_dim, Rng* rng) {
  if (kind == "mlp") return std::make_unique<MlpEncoder>(in_dim, 10, rng);
  if (kind == "cnn") {
    return std::make_unique<CnnEncoder>(in_dim, 10, 2, true, rng);
  }
  if (kind == "idcnn") {
    return std::make_unique<IdCnnEncoder>(in_dim, 10,
                                          std::vector<int>{1, 2, 4}, 2, rng);
  }
  if (kind == "bilstm") {
    return std::make_unique<RnnEncoder>("lstm", in_dim, 5, 1, 0.0, rng);
  }
  if (kind == "bigru") {
    return std::make_unique<RnnEncoder>("gru", in_dim, 5, 2, 0.0, rng);
  }
  if (kind == "transformer") {
    return std::make_unique<TransformerEncoder>(in_dim, 12, 2, 24, 2, 0.0,
                                                rng);
  }
  return nullptr;
}

class EncoderTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EncoderTest, OutputShapeMatchesContract) {
  Rng rng(1);
  auto enc = MakeEncoder(GetParam(), 7, &rng);
  ASSERT_NE(enc, nullptr);
  Var x = Constant(Tensor({9, 7}));
  Var out = EncodeWords(*enc, x);
  EXPECT_EQ(out->value.rows(), 9);
  EXPECT_EQ(out->value.cols(), enc->out_dim());
}

TEST_P(EncoderTest, GradCheck) {
  Rng rng(2);
  auto enc = MakeEncoder(GetParam(), 4, &rng);
  Var x = RandomInput(5, 4, 3);
  std::vector<Var> inputs = enc->Parameters();
  inputs.push_back(x);
  EXPECT_LT(
      MaxGradError([&] { return Mean(Tanh(EncodeWords(*enc, x))); }, inputs),
      2e-5)
      << GetParam();
}

TEST_P(EncoderTest, HasTrainableParameters) {
  Rng rng(3);
  auto enc = MakeEncoder(GetParam(), 4, &rng);
  EXPECT_GT(enc->ParameterCount(), 0);
}

TEST_P(EncoderTest, SingleTokenSentence) {
  Rng rng(4);
  auto enc = MakeEncoder(GetParam(), 6, &rng);
  Var x = Constant(Tensor({1, 6}));
  Var out = EncodeWords(*enc, x);
  EXPECT_EQ(out->value.rows(), 1);
}

INSTANTIATE_TEST_SUITE_P(Kinds, EncoderTest,
                         ::testing::Values("mlp", "cnn", "idcnn", "bilstm",
                                           "bigru", "transformer"),
                         [](const auto& info) { return info.param; });

TEST(MlpEncoderTest, NoContextMixing) {
  // A per-token MLP must not let token 0 influence token 2.
  Rng rng(5);
  MlpEncoder enc(3, 6, &rng);
  Tensor base({3, 3});
  Tensor modified = base;
  modified.at(0, 0) = 5.0;
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  for (int j = 0; j < 6; ++j) {
    EXPECT_DOUBLE_EQ(out_a->value.at(2, j), out_b->value.at(2, j));
  }
}

TEST(CnnEncoderTest, GlobalFeatureMixesWholeSentence) {
  // With the global max-pool feature, distant tokens do influence each
  // position (Collobert's "whole sentence consideration").
  Rng rng(6);
  CnnEncoder enc(3, 6, 1, /*global_feature=*/true, &rng);
  Tensor base({8, 3});
  Tensor modified = base;
  modified.at(7, 2) = 9.0;  // far from position 0, outside any conv window
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  bool changed = false;
  for (int j = 0; j < enc.out_dim(); ++j) {
    if (out_a->value.at(0, j) != out_b->value.at(0, j)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(CnnEncoderTest, LocalOnlyWithoutGlobalFeature) {
  Rng rng(7);
  CnnEncoder enc(3, 6, 1, /*global_feature=*/false, &rng);
  Tensor base({8, 3});
  Tensor modified = base;
  modified.at(7, 2) = 9.0;
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  for (int j = 0; j < enc.out_dim(); ++j) {
    EXPECT_DOUBLE_EQ(out_a->value.at(0, j), out_b->value.at(0, j));
  }
}

TEST(IdCnnTest, DilationGrowsReceptiveField) {
  // Block dilations {1, 2} iterated twice: receptive field reaches +-6;
  // a single width-3 dilation-1 conv would only reach +-1.
  Rng rng(8);
  IdCnnEncoder enc(2, 4, {1, 2}, 2, &rng);
  Rng data_rng(88);
  Tensor base({13, 2});
  for (int i = 0; i < base.size(); ++i) base[i] = data_rng.Uniform(-1.0, 1.0);
  Tensor modified = base;
  modified.at(6 + 5, 1) += 5.0;  // 5 positions away from the probe at t=6
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  // Some position at distance >= 4 from the perturbation must change
  // (individual positions can be masked by dead ReLU units, so probe a
  // band rather than a single index).
  bool changed = false;
  for (int t = 5; t <= 7; ++t) {
    for (int j = 0; j < enc.out_dim(); ++j) {
      if (out_a->value.at(t, j) != out_b->value.at(t, j)) changed = true;
    }
  }
  EXPECT_TRUE(changed);
  // ...and positions beyond the +-6 receptive field must NOT change.
  for (int t = 0; t <= 4; ++t) {
    for (int j = 0; j < enc.out_dim(); ++j) {
      EXPECT_DOUBLE_EQ(out_a->value.at(t, j), out_b->value.at(t, j));
    }
  }
}

TEST(IdCnnTest, SharedParametersAcrossIterations) {
  // Parameter count is independent of the iteration count.
  Rng rng_a(9), rng_b(9);
  IdCnnEncoder one(4, 8, {1, 2, 4}, 1, &rng_a);
  IdCnnEncoder four(4, 8, {1, 2, 4}, 4, &rng_b);
  EXPECT_EQ(one.ParameterCount(), four.ParameterCount());
}

TEST(RnnEncoderTest, BidirectionalContextReachesBothEnds) {
  Rng rng(10);
  RnnEncoder enc("lstm", 2, 4, 1, 0.0, &rng);
  Tensor base({6, 2});
  Tensor modified = base;
  modified.at(5, 0) = 2.0;  // last token change must reach position 0
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  bool changed = false;
  for (int j = 0; j < enc.out_dim(); ++j) {
    if (out_a->value.at(0, j) != out_b->value.at(0, j)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(TransformerTest, PositionSensitivity) {
  // Swapping two tokens must change the output at other positions (thanks
  // to position encodings + attention), unlike a bag-of-words pooling.
  Rng rng(11);
  TransformerEncoder enc(3, 8, 2, 16, 1, 0.0, &rng);
  Rng data_rng(12);
  Tensor x({5, 3});
  for (int i = 0; i < x.size(); ++i) x[i] = data_rng.Uniform(-1.0, 1.0);
  Tensor swapped = x;
  for (int j = 0; j < 3; ++j) std::swap(swapped.at(1, j), swapped.at(3, j));
  Var out_a = EncodeWords(enc, Constant(x));
  Var out_b = EncodeWords(enc, Constant(swapped));
  bool changed = false;
  for (int j = 0; j < enc.out_dim(); ++j) {
    if (out_a->value.at(0, j) != out_b->value.at(0, j)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(MultiHeadAttentionTest, ShapeAndGradCheck) {
  Rng rng(13);
  MultiHeadAttention mha(8, 2, &rng);
  Var x = RandomInput(4, 8, 14);
  Var out = mha.Apply(x);
  EXPECT_EQ(out->value.rows(), 4);
  EXPECT_EQ(out->value.cols(), 8);
  std::vector<Var> inputs = mha.Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Mean(Tanh(mha.Apply(x))); }, inputs),
            2e-5);
}

TEST(MultiHeadAttentionDeathTest, IndivisibleHeadsAbort) {
  Rng rng(15);
  EXPECT_DEATH(MultiHeadAttention(7, 2, &rng), "DLNER_CHECK");
}

}  // namespace
}  // namespace dlner::encoders
