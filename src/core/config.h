// Model configuration: one struct whose fields select a cell in each axis of
// the survey's taxonomy (Fig. 2) — input representation, context encoder,
// tag decoder — plus the training-relevant hyperparameters. The factory in
// model.h turns a config into a runnable NerModel, which is how the
// "easy-to-use toolkit" (survey Section 5.2) assembles any of the Table 3
// architectures by name.
#ifndef DLNER_CORE_CONFIG_H_
#define DLNER_CORE_CONFIG_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dlner::core {

struct NerConfig {
  // --- Distributed representations for input (Section 3.2) ---
  bool use_word = true;
  int word_dim = 24;
  bool freeze_word = false;     // keep pre-trained vectors fixed
  /// Word-level UNK dropout (Lample et al.): forces reliance on char /
  /// context features and is what makes them generalize to unseen words.
  double word_unk_dropout = 0.0;
  bool use_char_cnn = false;    // Fig. 3a
  int char_dim = 12;
  int char_filters = 16;
  bool use_char_rnn = false;    // Fig. 3b
  int char_hidden = 12;
  bool use_shape = false;       // word-shape features (hybrid)
  bool use_gazetteer = false;   // requires Resources::gazetteer
  bool use_char_lm = false;     // contextual string embeddings (Fig. 4)
  bool use_token_lm = false;    // TagLM/ELMo-style embeddings
  double input_dropout = 0.25;

  // --- Context encoder (Section 3.3) ---
  std::string encoder = "bilstm";  // mlp|cnn|idcnn|bilstm|bigru|transformer
  int hidden_dim = 24;             // per direction (rnn) / model dim (others)
  int encoder_layers = 1;
  double encoder_dropout = 0.1;
  int cnn_layers = 2;              // CnnEncoder depth
  bool cnn_global = true;          // Collobert global feature
  std::vector<int> idcnn_dilations = {1, 2, 4};
  int idcnn_iterations = 2;
  int transformer_heads = 2;
  int transformer_ffn = 48;

  // --- Tag decoder (Section 3.4) ---
  std::string decoder = "crf";  // softmax|crf|semicrf|rnn|pointer
  std::string scheme = "bioes";  // io|bio|bioes (tag decoders)
  int max_segment_len = 8;       // semicrf/pointer/fofe span cap
  double fofe_alpha = 0.5;       // FOFE forgetting factor
  int tag_embed_dim = 8;         // rnn decoder
  int decoder_hidden = 24;       // rnn/pointer decoder state size
  bool constrained_decoding = true;

  uint64_t seed = 42;

  /// Short human-readable architecture label, e.g.
  /// "word+charCNN / BiLSTM / CRF".
  std::string Describe() const;

  /// True when every field names a known module and sits in a sane range,
  /// so NerModel construction cannot CHECK-fail. Pipeline::Load rejects
  /// checkpoints whose deserialized config is not Valid() — corrupt files
  /// must fail by return value, never by crash.
  bool Valid() const;
};

/// Binary (de)serialization used by Pipeline::Save/Load.
void WriteConfig(std::ostream& os, const NerConfig& config);
bool ReadConfig(std::istream& is, NerConfig* config);

}  // namespace dlner::core

#endif  // DLNER_CORE_CONFIG_H_
