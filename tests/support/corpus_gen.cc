#include "support/corpus_gen.h"

#include <algorithm>

namespace dlner::testsup {

text::Corpus SmallCorpus(const std::string& dataset, int num_sentences,
                         uint64_t seed) {
  return data::MakeDataset(dataset, num_sentences, seed);
}

data::DataSplit SmallSplit(data::Genre genre, int train_size, int test_size,
                           uint64_t seed) {
  return data::MakeOovSplit(genre, train_size, test_size, seed);
}

text::Corpus TruncateSentences(const text::Corpus& corpus, int max_tokens) {
  text::Corpus out;
  for (const auto& s : corpus.sentences) {
    text::Sentence t;
    const int n = std::min(s.size(), max_tokens);
    t.tokens.assign(s.tokens.begin(), s.tokens.begin() + n);
    for (const text::Span& sp : s.spans) {
      if (sp.end <= n) t.spans.push_back(sp);
    }
    if (!t.tokens.empty()) out.sentences.push_back(std::move(t));
  }
  return out;
}

const std::vector<std::string>& AllEncoders() {
  static const std::vector<std::string> kEncoders = {
      "mlp", "cnn", "idcnn", "bilstm", "bigru", "brnn", "transformer"};
  return kEncoders;
}

const std::vector<std::string>& AllDecoders() {
  static const std::vector<std::string> kDecoders = {
      "softmax", "crf", "semicrf", "rnn", "pointer", "fofe"};
  return kDecoders;
}

core::NerConfig TinyConfig(const std::string& encoder,
                           const std::string& decoder, uint64_t seed) {
  core::NerConfig config;
  config.word_dim = 8;
  config.hidden_dim = 8;  // divisible by transformer_heads = 2
  config.encoder = encoder;
  config.decoder = decoder;
  config.encoder_layers = 1;
  config.cnn_layers = 1;
  config.idcnn_dilations = {1, 2};
  config.idcnn_iterations = 1;
  config.transformer_ffn = 16;
  config.max_segment_len = 4;
  config.tag_embed_dim = 4;
  config.decoder_hidden = 8;
  config.input_dropout = 0.0;  // inference-focused: no train-time noise
  config.encoder_dropout = 0.0;
  config.seed = seed;
  return config;
}

}  // namespace dlner::testsup
