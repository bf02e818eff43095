#include "core/model.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "runtime/runtime.h"

#include "decoders/crf.h"
#include "decoders/fofe.h"
#include "decoders/pointer.h"
#include "decoders/rnn_decoder.h"
#include "decoders/semicrf.h"
#include "decoders/softmax.h"
#include "embeddings/char_features.h"
#include "encoders/cnn.h"
#include "encoders/recursive.h"
#include "encoders/rnn_encoder.h"
#include "encoders/transformer.h"

namespace dlner::core {

NerModel::NerModel(const NerConfig& config, const text::Corpus& train,
                   std::vector<std::string> entity_types,
                   const Resources& resources)
    : NerModel(config, text::Vocabulary::FromCorpus(train),
               text::Vocabulary::CharsFromCorpus(train),
               std::move(entity_types), resources) {}

NerModel::NerModel(const NerConfig& config, text::Vocabulary word_vocab,
                   text::Vocabulary char_vocab,
                   std::vector<std::string> entity_types,
                   const Resources& resources)
    : config_(config),
      rng_(config.seed),
      word_vocab_(std::move(word_vocab)),
      char_vocab_(std::move(char_vocab)),
      entity_types_(std::move(entity_types)) {
  DLNER_CHECK(!entity_types_.empty());
  Build(resources);
}

void NerModel::Build(const Resources& resources) {
  // --- Input representation ---
  std::vector<std::unique_ptr<embeddings::TokenFeature>> features;
  if (config_.use_word) {
    auto word = std::make_unique<embeddings::WordEmbeddingFeature>(
        &word_vocab_, config_.word_dim, &rng_, config_.word_unk_dropout,
        "word_emb");
    if (resources.sgns != nullptr) {
      DLNER_CHECK_EQ(resources.sgns->dim(), config_.word_dim);
      resources.sgns->CopyInto(word_vocab_, word->embedding());
    }
    if (config_.freeze_word) word->embedding()->set_trainable(false);
    features.push_back(std::move(word));
  }
  if (config_.use_char_cnn) {
    features.push_back(std::make_unique<embeddings::CharCnnFeature>(
        &char_vocab_, config_.char_dim, config_.char_filters, &rng_));
  }
  if (config_.use_char_rnn) {
    features.push_back(std::make_unique<embeddings::CharRnnFeature>(
        &char_vocab_, config_.char_dim, config_.char_hidden, &rng_));
  }
  if (config_.use_shape) {
    features.push_back(std::make_unique<embeddings::WordShapeFeature>());
  }
  if (config_.use_gazetteer) {
    DLNER_CHECK_MSG(resources.gazetteer != nullptr,
                    "config.use_gazetteer requires Resources::gazetteer");
    features.push_back(
        std::make_unique<embeddings::GazetteerFeature>(resources.gazetteer));
  }
  if (config_.use_char_lm) {
    DLNER_CHECK_MSG(resources.char_lm != nullptr,
                    "config.use_char_lm requires Resources::char_lm");
    features.push_back(
        std::make_unique<embeddings::LmFeature>(resources.char_lm));
  }
  if (config_.use_token_lm) {
    DLNER_CHECK_MSG(resources.token_lm != nullptr,
                    "config.use_token_lm requires Resources::token_lm");
    features.push_back(
        std::make_unique<embeddings::LmFeature>(resources.token_lm));
  }
  DLNER_CHECK_MSG(!features.empty(), "no input features enabled");
  representation_ = std::make_unique<embeddings::ComposedRepresentation>(
      std::move(features), config_.input_dropout, &rng_);

  // --- Context encoder ---
  const int rep_dim = representation_->dim();
  if (config_.encoder == "mlp") {
    encoder_ = std::make_unique<encoders::MlpEncoder>(rep_dim,
                                                      config_.hidden_dim,
                                                      &rng_);
  } else if (config_.encoder == "cnn") {
    encoder_ = std::make_unique<encoders::CnnEncoder>(
        rep_dim, config_.hidden_dim, config_.cnn_layers, config_.cnn_global,
        &rng_);
  } else if (config_.encoder == "idcnn") {
    encoder_ = std::make_unique<encoders::IdCnnEncoder>(
        rep_dim, config_.hidden_dim, config_.idcnn_dilations,
        config_.idcnn_iterations, &rng_);
  } else if (config_.encoder == "bilstm") {
    encoder_ = std::make_unique<encoders::RnnEncoder>(
        "lstm", rep_dim, config_.hidden_dim, config_.encoder_layers,
        config_.encoder_dropout, &rng_);
  } else if (config_.encoder == "bigru") {
    encoder_ = std::make_unique<encoders::RnnEncoder>(
        "gru", rep_dim, config_.hidden_dim, config_.encoder_layers,
        config_.encoder_dropout, &rng_);
  } else if (config_.encoder == "brnn") {
    encoder_ = std::make_unique<encoders::RecursiveEncoder>(
        rep_dim, config_.hidden_dim, &rng_);
  } else if (config_.encoder == "transformer") {
    encoder_ = std::make_unique<encoders::TransformerEncoder>(
        rep_dim, config_.hidden_dim, config_.transformer_heads,
        config_.transformer_ffn, config_.encoder_layers,
        config_.encoder_dropout, &rng_);
  } else {
    DLNER_CHECK_MSG(false, "unknown encoder kind: " << config_.encoder);
  }

  // --- Tag decoder ---
  const int enc_dim = encoder_->out_dim();
  if (config_.decoder == "softmax" || config_.decoder == "crf" ||
      config_.decoder == "rnn") {
    tags_ = std::make_unique<text::TagSet>(
        entity_types_, text::TagSchemeFromString(config_.scheme));
  }
  if (config_.decoder == "softmax") {
    decoder_ = std::make_unique<decoders::SoftmaxDecoder>(enc_dim,
                                                          tags_.get(), &rng_);
  } else if (config_.decoder == "crf") {
    decoder_ = std::make_unique<decoders::CrfDecoder>(
        enc_dim, tags_.get(), &rng_, config_.constrained_decoding);
  } else if (config_.decoder == "semicrf") {
    decoder_ = std::make_unique<decoders::SemiCrfDecoder>(
        enc_dim, entity_types_, config_.max_segment_len, &rng_);
  } else if (config_.decoder == "rnn") {
    decoder_ = std::make_unique<decoders::RnnDecoder>(
        enc_dim, tags_.get(), config_.tag_embed_dim, config_.decoder_hidden,
        &rng_);
  } else if (config_.decoder == "fofe") {
    decoder_ = std::make_unique<decoders::FofeDecoder>(
        enc_dim, entity_types_, config_.max_segment_len,
        config_.fofe_alpha, &rng_);
  } else if (config_.decoder == "pointer") {
    decoder_ = std::make_unique<decoders::PointerDecoder>(
        enc_dim, entity_types_, config_.max_segment_len,
        config_.decoder_hidden, &rng_);
  } else {
    DLNER_CHECK_MSG(false, "unknown decoder kind: " << config_.decoder);
  }

  // Per-module timing instruments (survey Section 5.2's "effectiveness
  // measure" extended to cost: the encoder/decoder latency accounting the
  // ID-CNN line of work argues for). Pointers are process-stable.
  obs::Metrics& metrics = obs::Metrics::Get();
  repr_forward_us_ = metrics.histogram("representation.forward_us");
  encoder_forward_us_ =
      metrics.histogram("encoder." + config_.encoder + ".forward_us");
  decoder_loss_us_ =
      metrics.histogram("decoder." + config_.decoder + ".loss_us");
}

namespace {

// Runs `fn`, recording its wall time into `hist` when metric collection is
// on. The disabled path is one relaxed load.
template <typename Fn>
auto Timed(obs::Histogram* hist, Fn&& fn) {
  if (!obs::MetricsEnabled() || hist == nullptr) return fn();
  obs::Stopwatch sw;
  auto out = fn();
  hist->Observe(sw.Micros());
  return out;
}

}  // namespace

Var NerModel::Represent(const std::vector<std::string>& tokens,
                        bool training) const {
  obs::ScopedSpan span("embed");
  return Timed(repr_forward_us_,
               [&] { return representation_->Forward(tokens, training); });
}

Var NerModel::EncodeTokens(const Var& representation,
                           const std::vector<std::string>& tokens,
                           bool training) const {
  obs::ScopedSpan span("encode");
  return Timed(encoder_forward_us_, [&] {
    return encoder_->Encode(representation, tokens, training);
  });
}

Var NerModel::LossFromRepresentation(const Var& representation,
                                     const text::Sentence& gold,
                                     bool training) const {
  Var encoded = EncodeTokens(representation, gold.tokens, training);
  obs::ScopedSpan span("loss");
  return Timed(decoder_loss_us_,
               [&] { return decoder_->Loss(encoded, gold); });
}

Var NerModel::Loss(const text::Sentence& sentence, bool training) {
  DLNER_CHECK_GT(sentence.size(), 0);
  return LossFromRepresentation(Represent(sentence.tokens, training),
                                sentence, training);
}

namespace {

std::int64_t CountTokens(const text::Corpus& corpus) {
  std::int64_t tokens = 0;
  for (const auto& s : corpus.sentences) {
    tokens += static_cast<std::int64_t>(s.tokens.size());
  }
  return tokens;
}

// Publishes corpus-pass throughput under `prefix` (e.g. "eval"):
// cumulative sentence/token/wall counters plus latest-rate gauges.
void RecordCorpusThroughput(const char* prefix, const text::Corpus& corpus,
                            double seconds) {
  const std::string p(prefix);
  const std::int64_t tokens = CountTokens(corpus);
  obs::Metrics& m = obs::Metrics::Get();
  m.counter(p + ".sentences")->Add(corpus.sentences.size());
  m.counter(p + ".tokens")->Add(tokens);
  m.counter(p + ".wall_us")
      ->Add(static_cast<std::int64_t>(seconds * 1e6));
  if (seconds > 0.0) {
    m.gauge(p + ".sentences_per_sec")
        ->Set(static_cast<double>(corpus.sentences.size()) / seconds);
    m.gauge(p + ".tokens_per_sec")
        ->Set(static_cast<double>(tokens) / seconds);
  }
}

}  // namespace

const plan::InferencePlan& NerModel::plan() const {
  std::call_once(plan_once_, [&] {
    obs::ScopedSpan span("plan/compile");
    plan::PlanModules modules;
    modules.representation = representation_.get();
    modules.encoder = encoder_.get();
    modules.decoder = decoder_.get();
    plan_ = std::make_unique<plan::InferencePlan>(modules);
  });
  return *plan_;
}

std::vector<std::vector<text::Span>> NerModel::PredictPlanned(
    const text::Corpus& corpus) const {
  const plan::InferencePlan& p = plan();
  const auto& sentences = corpus.sentences;
  std::vector<std::vector<text::Span>> predicted(sentences.size());
  // Non-empty sentences map to contiguous batch slots; empty ones keep
  // their (empty) result vector.
  std::vector<std::size_t> slots;
  slots.reserve(sentences.size());
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    if (!sentences[i].tokens.empty()) slots.push_back(i);
  }
  const std::int64_t batches =
      (static_cast<std::int64_t>(slots.size()) + plan::kMicroBatch - 1) /
      plan::kMicroBatch;
  runtime::ParallelFor(
      batches, /*grain=*/1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t batch = begin; batch < end; ++batch) {
          const std::size_t lo =
              static_cast<std::size_t>(batch * plan::kMicroBatch);
          const std::size_t hi =
              std::min(lo + static_cast<std::size_t>(plan::kMicroBatch),
                       slots.size());
          std::vector<const std::vector<std::string>*> tokens;
          tokens.reserve(hi - lo);
          for (std::size_t s = lo; s < hi; ++s) {
            tokens.push_back(&sentences[slots[s]].tokens);
          }
          std::vector<std::vector<text::Span>> out(hi - lo);
          p.Execute(tokens, &out);
          for (std::size_t s = lo; s < hi; ++s) {
            predicted[slots[s]] = std::move(out[s - lo]);
          }
        }
      });
  return predicted;
}

std::vector<std::vector<text::Span>> NerModel::PredictCorpus(
    const text::Corpus& corpus) const {
  obs::ScopedSpan span("predict_corpus");
  const bool timed = obs::MetricsEnabled();
  obs::Stopwatch sw;
  std::vector<std::vector<text::Span>> predicted = PredictPlanned(corpus);
  if (timed) RecordCorpusThroughput("tag", corpus, sw.Seconds());
  return predicted;
}

eval::ExactResult NerModel::Evaluate(const text::Corpus& corpus) const {
  obs::ScopedSpan span("evaluate");
  const bool timed = obs::MetricsEnabled();
  obs::Stopwatch sw;
  const auto& sentences = corpus.sentences;
  eval::ExactMatchEvaluator ev;
  const std::vector<std::vector<text::Span>> predicted = PredictPlanned(corpus);
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    ev.Add(sentences[i].spans, predicted[i]);
  }
  if (timed) RecordCorpusThroughput("eval", corpus, sw.Seconds());
  return ev.Result();
}

std::vector<Var> NerModel::Parameters() const {
  return JoinParameters(
      {representation_.get(), encoder_.get(), decoder_.get()});
}

}  // namespace dlner::core
