#include "decoders/softmax.h"

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {
namespace {

// The best tag of each of t_len logit rows of k floats: the first maximum.
std::vector<int> ArgmaxRows(const Float* logits, int t_len, int k) {
  std::vector<int> best(t_len);
  for (int t = 0; t < t_len; ++t) {
    const Float* row = logits + static_cast<std::size_t>(t) * k;
    int arg = 0;
    for (int j = 1; j < k; ++j) {
      if (row[j] > row[arg]) arg = j;
    }
    best[t] = arg;
  }
  return best;
}

}  // namespace

SoftmaxDecoder::SoftmaxDecoder(int in_dim, const text::TagSet* tags, Rng* rng,
                               const std::string& name)
    : tags_(tags),
      proj_(std::make_unique<Linear>(in_dim, tags->size(), rng, name)) {
  DLNER_CHECK(tags_ != nullptr);
}

Var SoftmaxDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/softmax");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());
  const std::vector<int> gold_ids = tags_->SpansToTagIds(gold.spans, t_len);
  Var logits = proj_->Apply(encodings);  // [T, K]
  std::vector<Var> terms;
  terms.reserve(t_len);
  for (int t = 0; t < t_len; ++t) {
    terms.push_back(CrossEntropyWithLogits(Row(logits, t), gold_ids[t]));
  }
  return Scale(Sum(Concat(terms)), 1.0 / t_len);
}

std::vector<text::Span> SoftmaxDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/softmax");
  const Var logits = proj_->Apply(encodings);
  return tags_->TagIdsToSpans(ArgmaxRows(
      logits->value.data(), logits->value.rows(), logits->value.cols()));
}

void SoftmaxDecoder::DecodePacked(
    const batched::PackedBatch& batch, const Float* x, int /*in_dim*/,
    std::vector<std::vector<text::Span>>* out) const {
  obs::ScopedSpan span("decode/softmax");
  const int k = proj_->out_dim();
  Float* logits = batch.AllocRows(k);
  batched::Affine(x, batch.rows(), proj_->weight()->value,
                  proj_->bias()->value, logits);
  for (int b = 0; b < batch.batch(); ++b) {
    (*out)[b] = tags_->TagIdsToSpans(ArgmaxRows(
        logits + static_cast<std::size_t>(batch.layout->offset(b)) * k,
        batch.layout->len(b), k));
  }
}

}  // namespace dlner::decoders
