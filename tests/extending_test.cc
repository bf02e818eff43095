// The extension paths docs/EXTENDING.md §7 promises: a user-defined
// TokenFeature, ContextEncoder and TagDecoder without packed hooks still run
// through InferencePlan on the eager bridges, and an extension feature or
// encoder that overrides the packed hook gets the packed path — both
// bit-identical to the eager per-sentence forward, without editing
// src/plan/. The two features and the mean-context encoder are the guide's
// own examples, compiled verbatim (tests/CMakeLists.txt extracts them).
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extending_snippets.h"

#include "decoders/decoder.h"
#include "decoders/softmax.h"
#include "encoders/encoder.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "tensor/batched.h"
#include "tensor/ops.h"
#include "text/tagging.h"
#include "text/vocab.h"

namespace dlner {
namespace {

// A decoder without a packed hook: every token whose first encoding
// column is positive becomes a one-token "ENT" span.
class SignDecoder : public decoders::TagDecoder {
 public:
  Var Loss(const Var& encodings, const text::Sentence& /*gold*/) override {
    return Sum(encodings);
  }
  std::vector<text::Span> Predict(const Var& encodings) const override {
    std::vector<text::Span> spans;
    for (int t = 0; t < encodings->value.rows(); ++t) {
      if (encodings->value.at(t, 0) > 0.0) spans.push_back({t, t + 1, "ENT"});
    }
    return spans;
  }
  std::vector<Var> Parameters() const override { return {}; }
};

// An extension encoder with its own packed kernel (docs/EXTENDING.md §7):
// a per-token ReLU projection, eager through the autograd ops and packed
// through one batched::Affine over the whole micro-batch.
class ReluProjectionEncoder : public encoders::ContextEncoder {
 public:
  ReluProjectionEncoder(int in_dim, int out_dim, Rng* rng)
      : proj_(std::make_unique<Linear>(in_dim, out_dim, rng, "relu_proj")) {}

  Var Encode(const Var& input, const std::vector<std::string>& /*tokens*/,
             bool /*training*/) const override {
    return Relu(proj_->Apply(input));
  }
  int out_dim() const override { return proj_->out_dim(); }
  std::vector<Var> Parameters() const override { return proj_->Parameters(); }

  const Float* EncodePacked(const batched::PackedBatch& batch, const Float* x,
                            int /*in_dim*/) const override {
    obs::ScopedSpan span("encode/relu_proj");
    ++packed_calls;
    Float* out = batch.AllocRows(out_dim());
    batched::Affine(x, batch.rows(), proj_->weight()->value,
                    proj_->bias()->value, out, batched::Act::kRelu);
    return out;
  }
  const char* packed_kind() const override { return "relu_proj"; }

  mutable std::atomic<int> packed_calls{0};

 private:
  std::unique_ptr<Linear> proj_;
};

// 17 sentences of 1 to 11 tokens over a 13-word vocabulary.
text::Corpus TinyCorpus() {
  text::Corpus corpus;
  for (int i = 0; i < 17; ++i) {
    std::vector<std::string> tokens;
    for (int t = 0; t <= (i * 7) % 11; ++t) {
      tokens.push_back(std::to_string((i + 3 * t) % 13).insert(0, 1, 'w'));
    }
    corpus.sentences.push_back({tokens, {}});
  }
  return corpus;
}

// Runs `plan` over `corpus` in micro-batches of 1, 3 and 17 sentences and
// compares every sentence with the eager per-sentence forward.
void ExpectPlannedMatchesEager(
    const plan::InferencePlan& plan, const text::Corpus& corpus,
    const embeddings::ComposedRepresentation& representation,
    const encoders::ContextEncoder& encoder,
    const decoders::TagDecoder& decoder) {
  std::vector<std::vector<text::Span>> eager;
  int spans = 0;
  {
    NoGradGuard no_grad;
    for (const text::Sentence& s : corpus.sentences) {
      const Var rep = representation.Forward(s.tokens, /*training=*/false);
      eager.push_back(decoder.Predict(
          encoder.Encode(rep, s.tokens, /*training=*/false)));
      spans += static_cast<int>(eager.back().size());
    }
  }
  ASSERT_GT(spans, 0);  // the comparison is not between empty outputs

  for (const std::size_t batch : {1, 3, 17}) {
    for (std::size_t lo = 0; lo < corpus.sentences.size(); lo += batch) {
      const std::size_t hi = std::min(lo + batch, corpus.sentences.size());
      std::vector<const std::vector<std::string>*> tokens;
      for (std::size_t i = lo; i < hi; ++i) {
        tokens.push_back(&corpus.sentences[i].tokens);
      }
      std::vector<std::vector<text::Span>> planned(hi - lo);
      plan.Execute(tokens, &planned);
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_EQ(planned[i - lo], eager[i])
            << "batch " << batch << ", sentence " << i;
      }
    }
  }
}

TEST(ExtensionBridgeTest, DocumentedModulesPlanLikeEager) {
  const text::Corpus corpus = TinyCorpus();
  const text::Vocabulary vocab = text::Vocabulary::FromCorpus(corpus);
  Rng rng(3);
  std::vector<std::unique_ptr<embeddings::TokenFeature>> features;
  features.push_back(
      std::make_unique<embeddings::WordEmbeddingFeature>(&vocab, 4, &rng));
  features.push_back(std::make_unique<SentencePositionFeature>());
  const embeddings::ComposedRepresentation representation(
      std::move(features), /*dropout=*/0.0, &rng);
  const MeanContextEncoder encoder(representation.dim(), 5, &rng);
  const SignDecoder decoder;
  const plan::InferencePlan plan({&representation, &encoder, &decoder});
  EXPECT_FALSE(plan.fully_batched());
  EXPECT_EQ(plan.Describe(),
            "plan[embed=mixed encoder=eager:eager decoder=eager:eager]");
  ExpectPlannedMatchesEager(plan, corpus, representation, encoder, decoder);
}

TEST(ExtensionBridgeTest, ExtensionEncoderWithPackedHookRunsPacked) {
  const text::Corpus corpus = TinyCorpus();
  const text::Vocabulary vocab = text::Vocabulary::FromCorpus(corpus);
  Rng rng(5);
  std::vector<std::unique_ptr<embeddings::TokenFeature>> features;
  features.push_back(
      std::make_unique<embeddings::WordEmbeddingFeature>(&vocab, 4, &rng));
  // Written once as its fill: the eager side reads it through
  // FrozenForward, one sentence at a time.
  features.push_back(std::make_unique<RelativePositionFeature>());
  const embeddings::ComposedRepresentation representation(
      std::move(features), /*dropout=*/0.0, &rng);
  const ReluProjectionEncoder encoder(representation.dim(), 5, &rng);
  // A softmax decoder reads every encoding value, so a packed kernel that
  // differs from Encode anywhere (not only in sign) changes some tag.
  const text::TagSet tags({"LOC", "ORG", "PER"}, text::TagScheme::kIo);
  const decoders::SoftmaxDecoder decoder(encoder.out_dim(), &tags, &rng);
  const plan::InferencePlan plan({&representation, &encoder, &decoder});
  EXPECT_TRUE(plan.fully_batched());
  EXPECT_EQ(plan.Describe(),
            "plan[embed=batched encoder=relu_proj:batched "
            "decoder=softmax:batched]");
  ExpectPlannedMatchesEager(plan, corpus, representation, encoder, decoder);
  // One packed call per micro-batch: 17 + 6 + 1 for batch sizes 1, 3, 17.
  EXPECT_EQ(encoder.packed_calls.load(), 24);
}

}  // namespace
}  // namespace dlner
