#include "core/config.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "tensor/serialize.h"

namespace dlner::core {
namespace {

void WriteString(std::ostream& os, const std::string& s) {
  WriteLenString(os, s);
}

bool ReadString(std::istream& is, std::string* s) {
  return ReadLenString(is, s, 1u << 20);
}

}  // namespace

std::string NerConfig::Describe() const {
  std::ostringstream oss;
  bool first = true;
  auto add = [&](const std::string& part) {
    if (!first) oss << "+";
    oss << part;
    first = false;
  };
  if (use_word) add(freeze_word ? "word(frozen)" : "word");
  if (use_char_cnn) add("charCNN");
  if (use_char_rnn) add("charLSTM");
  if (use_shape) add("shape");
  if (use_gazetteer) add("gaz");
  if (use_char_lm) add("charLM");
  if (use_token_lm) add("tokenLM");
  oss << " / " << encoder << " / " << decoder;
  return oss.str();
}

bool NerConfig::Valid() const {
  const auto dim_ok = [](int d) { return d >= 1 && d <= 4096; };
  const auto prob_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!use_word && !use_char_cnn && !use_char_rnn && !use_shape &&
      !use_gazetteer && !use_char_lm && !use_token_lm) {
    return false;
  }
  if (!dim_ok(word_dim) || !dim_ok(char_dim) || !dim_ok(char_filters) ||
      !dim_ok(char_hidden) || !dim_ok(hidden_dim) || !dim_ok(tag_embed_dim) ||
      !dim_ok(decoder_hidden) || !dim_ok(transformer_ffn)) {
    return false;
  }
  if (!prob_ok(word_unk_dropout) || !prob_ok(input_dropout) ||
      !prob_ok(encoder_dropout)) {
    return false;
  }
  if (encoder != "mlp" && encoder != "cnn" && encoder != "idcnn" &&
      encoder != "bilstm" && encoder != "bigru" && encoder != "brnn" &&
      encoder != "transformer") {
    return false;
  }
  if (encoder_layers < 1 || encoder_layers > 64) return false;
  if (cnn_layers < 1 || cnn_layers > 64) return false;
  if (idcnn_dilations.empty() || idcnn_dilations.size() > 16) return false;
  for (int d : idcnn_dilations) {
    if (d < 1 || d > 1024) return false;
  }
  if (idcnn_iterations < 1 || idcnn_iterations > 64) return false;
  if (transformer_heads < 1 || transformer_heads > 64) return false;
  // Gated on use so unused fields cannot invalidate a trained config.
  if (encoder == "transformer" && hidden_dim % transformer_heads != 0) {
    return false;
  }
  if (decoder != "softmax" && decoder != "crf" && decoder != "semicrf" &&
      decoder != "rnn" && decoder != "pointer" && decoder != "fofe") {
    return false;
  }
  if (scheme != "io" && scheme != "bio" && scheme != "bioes") return false;
  if (max_segment_len < 1 || max_segment_len > 1024) return false;
  if (decoder == "fofe" && (!(fofe_alpha > 0.0) || !(fofe_alpha < 1.0))) {
    return false;
  }
  return true;
}

void WriteConfig(std::ostream& os, const NerConfig& c) {
  WritePod(os, c.use_word);
  WritePod(os, c.word_dim);
  WritePod(os, c.freeze_word);
  WritePod(os, c.word_unk_dropout);
  WritePod(os, c.use_char_cnn);
  WritePod(os, c.char_dim);
  WritePod(os, c.char_filters);
  WritePod(os, c.use_char_rnn);
  WritePod(os, c.char_hidden);
  WritePod(os, c.use_shape);
  WritePod(os, c.use_gazetteer);
  WritePod(os, c.use_char_lm);
  WritePod(os, c.use_token_lm);
  WritePod(os, c.input_dropout);
  WriteString(os, c.encoder);
  WritePod(os, c.hidden_dim);
  WritePod(os, c.encoder_layers);
  WritePod(os, c.encoder_dropout);
  WritePod(os, c.cnn_layers);
  WritePod(os, c.cnn_global);
  WritePod(os, static_cast<uint32_t>(c.idcnn_dilations.size()));
  for (int d : c.idcnn_dilations) WritePod(os, d);
  WritePod(os, c.idcnn_iterations);
  WritePod(os, c.transformer_heads);
  WritePod(os, c.transformer_ffn);
  WriteString(os, c.decoder);
  WriteString(os, c.scheme);
  WritePod(os, c.max_segment_len);
  WritePod(os, c.fofe_alpha);
  WritePod(os, c.tag_embed_dim);
  WritePod(os, c.decoder_hidden);
  WritePod(os, c.constrained_decoding);
  WritePod(os, c.seed);
}

bool ReadConfig(std::istream& is, NerConfig* c) {
  if (!ReadPod(is, &c->use_word)) return false;
  if (!ReadPod(is, &c->word_dim)) return false;
  if (!ReadPod(is, &c->freeze_word)) return false;
  if (!ReadPod(is, &c->word_unk_dropout)) return false;
  if (!ReadPod(is, &c->use_char_cnn)) return false;
  if (!ReadPod(is, &c->char_dim)) return false;
  if (!ReadPod(is, &c->char_filters)) return false;
  if (!ReadPod(is, &c->use_char_rnn)) return false;
  if (!ReadPod(is, &c->char_hidden)) return false;
  if (!ReadPod(is, &c->use_shape)) return false;
  if (!ReadPod(is, &c->use_gazetteer)) return false;
  if (!ReadPod(is, &c->use_char_lm)) return false;
  if (!ReadPod(is, &c->use_token_lm)) return false;
  if (!ReadPod(is, &c->input_dropout)) return false;
  if (!ReadString(is, &c->encoder)) return false;
  if (!ReadPod(is, &c->hidden_dim)) return false;
  if (!ReadPod(is, &c->encoder_layers)) return false;
  if (!ReadPod(is, &c->encoder_dropout)) return false;
  if (!ReadPod(is, &c->cnn_layers)) return false;
  if (!ReadPod(is, &c->cnn_global)) return false;
  uint32_t n_dil = 0;
  if (!ReadPod(is, &n_dil) || n_dil > 16) return false;
  c->idcnn_dilations.resize(n_dil);
  for (uint32_t i = 0; i < n_dil; ++i) {
    if (!ReadPod(is, &c->idcnn_dilations[i])) return false;
  }
  if (!ReadPod(is, &c->idcnn_iterations)) return false;
  if (!ReadPod(is, &c->transformer_heads)) return false;
  if (!ReadPod(is, &c->transformer_ffn)) return false;
  if (!ReadString(is, &c->decoder)) return false;
  if (!ReadString(is, &c->scheme)) return false;
  if (!ReadPod(is, &c->max_segment_len)) return false;
  if (!ReadPod(is, &c->fofe_alpha)) return false;
  if (!ReadPod(is, &c->tag_embed_dim)) return false;
  if (!ReadPod(is, &c->decoder_hidden)) return false;
  if (!ReadPod(is, &c->constrained_decoding)) return false;
  if (!ReadPod(is, &c->seed)) return false;
  return true;
}

}  // namespace dlner::core
