// Greedy RNN tag decoder (survey Section 3.4.3, Fig. 12c; Shen et al.):
// an LSTM consumes the encoder state of the current token together with an
// embedding of the previously predicted tag and emits the next tag. Teacher
// forcing at training time, greedy left-to-right decoding at test time.
//
// Shen et al.'s claim — decoding cost grows O(K) with the tag-set size K
// instead of the CRF's O(K^2) — is measured by bench_decoder_scaling.
#ifndef DLNER_DECODERS_RNN_DECODER_H_
#define DLNER_DECODERS_RNN_DECODER_H_

#include <memory>
#include <string>

#include "decoders/decoder.h"
#include "tensor/rnn.h"
#include "text/tagging.h"

namespace dlner::decoders {

class RnnDecoder : public TagDecoder {
 public:
  RnnDecoder(int in_dim, const text::TagSet* tags, int tag_embed_dim,
             int hidden_dim, Rng* rng, const std::string& name = "rnn_dec");

  Var Loss(const Var& encodings, const text::Sentence& gold) override;
  std::vector<text::Span> Predict(const Var& encodings) const override;
  std::vector<Var> Parameters() const override;

  const text::TagSet& tags() const { return *tags_; }

 private:
  /// Tag-embedding id of the [GO] symbol (one past the last tag id).
  int GoId() const { return tags_->size(); }

  const text::TagSet* tags_;  // not owned
  std::unique_ptr<Embedding> tag_embedding_;  // [K+1, e] (+1 for GO)
  std::unique_ptr<LstmCell> cell_;            // input: enc_dim + e
  std::unique_ptr<Linear> out_;               // hidden -> K
};

}  // namespace dlner::decoders

#endif  // DLNER_DECODERS_RNN_DECODER_H_
