// The extension bridges docs/EXTENDING.md §7 promises: a user-defined
// TokenFeature, ContextEncoder and TagDecoder that the plan does not
// recognize still run through InferencePlan, bit-identical to the eager
// per-sentence forward. The feature and encoder are the guide's own
// examples, compiled verbatim (tests/CMakeLists.txt extracts them).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "extending_snippets.h"

#include "decoders/decoder.h"
#include "plan/plan.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace dlner {
namespace {

// A decoder without a plan emitter: every token whose first encoding
// column is positive becomes a one-token "ENT" span.
class SignDecoder : public decoders::TagDecoder {
 public:
  Var Loss(const Var& encodings, const text::Sentence& /*gold*/) override {
    return Mean(encodings);
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

TEST(ExtensionBridgeTest, DocumentedModulesPlanLikeEager) {
  text::Corpus corpus;
  for (int i = 0; i < 17; ++i) {
    std::vector<std::string> tokens;
    for (int t = 0; t <= (i * 7) % 11; ++t) {
      tokens.push_back(std::to_string((i + 3 * t) % 13).insert(0, 1, 'w'));
    }
    corpus.sentences.push_back({tokens, {}});
  }
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

}  // namespace
}  // namespace dlner
