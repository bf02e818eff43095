#include "plan/plan.h"

#include <cstring>
#include <memory>
#include <utility>

#include "decoders/crf.h"
#include "decoders/softmax.h"
#include "embeddings/char_features.h"
#include "encoders/cnn.h"
#include "encoders/rnn_encoder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/rnn.h"
#include "tensor/variable.h"

namespace dlner::plan {
namespace {

constexpr std::size_t kF = sizeof(Float);

// ---------------------------------------------------------------------------
// Representation step: one column-slice fill per feature.
// ---------------------------------------------------------------------------

// Writes one feature's [rows, dim] block into the packed representation
// buffer at a fixed column offset (`dst` already points at the offset;
// `stride` is the full representation width).
using FeatureFill = std::function<void(ExecContext&, Float*, int)>;

FeatureFill WordFill(const embeddings::WordEmbeddingFeature* f) {
  return [f](ExecContext& ctx, Float* dst, int stride) {
    const Tensor& table = f->embedding().table()->value;
    const int d = f->dim();
    for (int b = 0; b < ctx.layout->batch(); ++b) {
      const std::vector<int> ids = f->vocab().Encode(*(*ctx.sentences)[b]);
      const int off = ctx.layout->offset(b);
      for (int t = 0; t < ctx.layout->len(b); ++t) {
        std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                    table.data() + static_cast<std::size_t>(ids[t]) * d,
                    d * kF);
      }
    }
  };
}

FeatureFill ShapeFill() {
  return [](ExecContext& ctx, Float* dst, int stride) {
    for (int b = 0; b < ctx.layout->batch(); ++b) {
      const auto& tokens = *(*ctx.sentences)[b];
      const int off = ctx.layout->offset(b);
      for (int t = 0; t < ctx.layout->len(b); ++t) {
        const std::vector<Float> shape =
            embeddings::WordShapeFeature::ShapeOf(tokens[t]);
        std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                    shape.data(), shape.size() * kF);
      }
    }
  };
}

FeatureFill GazetteerFill(const embeddings::GazetteerFeature* f) {
  return [f](ExecContext& ctx, Float* dst, int stride) {
    for (int b = 0; b < ctx.layout->batch(); ++b) {
      const auto rows = f->gazetteer().MatchFeatures(*(*ctx.sentences)[b]);
      const int off = ctx.layout->offset(b);
      for (int t = 0; t < ctx.layout->len(b); ++t) {
        std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                    rows[t].data(), rows[t].size() * kF);
      }
    }
  };
}

// Character features, packed: every token of the micro-batch becomes one
// segment of a character BatchLayout (segment r is packed token row r), so
// the whole batch's characters go through one embedding gather and one
// batched kernel instead of one eager graph per word. Returns the gathered
// [chars->rows(), char_dim] embedding rows.
const Float* GatherChars(ExecContext& ctx, const text::Vocabulary& vocab,
                         const Tensor& table, batched::BatchLayout* chars) {
  std::vector<int> ids;
  for (int b = 0; b < ctx.layout->batch(); ++b) {
    for (const std::string& word : *(*ctx.sentences)[b]) {
      const std::vector<int> word_ids = embeddings::CharIdsOf(vocab, word);
      ids.insert(ids.end(), word_ids.begin(), word_ids.end());
      chars->Add(static_cast<int>(word_ids.size()));
    }
  }
  const int d = table.cols();
  Float* x = ctx.arena->Alloc(ids.size() * d);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(x + i * d, table.data() + static_cast<std::size_t>(ids[i]) * d,
                d * kF);
  }
  return x;
}

// Char CNN (Fig. 3a): conv + ReLU over each word's characters, then
// max-pooling over them — CharCnnFeature::Forward, one segment per word.
// The character rows are scratch, freed once the pooled rows are written.
FeatureFill CharCnnFill(const embeddings::CharCnnFeature* f) {
  return [f](ExecContext& ctx, Float* dst, int stride) {
    const Arena::Scope scratch(ctx.arena);
    const Tensor& table = f->char_embedding().table()->value;
    const Conv1d& conv = f->conv();
    batched::BatchLayout chars;
    const Float* x = GatherChars(ctx, f->char_vocab(), table, &chars);
    const int n = f->dim();
    Float* h = ctx.arena->Alloc(static_cast<std::size_t>(chars.rows()) * n);
    batched::ConvSegments(x, table.cols(), chars, conv.width(),
                          conv.dilation(), conv.weight()->value,
                          conv.bias()->value, h, batched::Act::kRelu);
    batched::MaxOverSegments(h, n, chars, dst, stride);
  };
}

// Char BiLSTM (Fig. 3b): the forward state after a word's last character
// and the backward state after its first — CharRnnFeature::Forward's two
// final states, one segment per word. Character rows are scratch, as in
// CharCnnFill.
FeatureFill CharRnnFill(const embeddings::CharRnnFeature* f) {
  const auto& fc = f->forward_cell().gates();
  const auto& bc = f->backward_cell().gates();
  const batched::LstmDir fwd{&fc.weight()->value, &fc.bias()->value};
  const batched::LstmDir bwd{&bc.weight()->value, &bc.bias()->value};
  return [f, fwd, bwd](ExecContext& ctx, Float* dst, int stride) {
    const Arena::Scope scratch(ctx.arena);
    const Tensor& table = f->char_embedding().table()->value;
    batched::BatchLayout chars;
    const Float* x = GatherChars(ctx, f->char_vocab(), table, &chars);
    const int hd = f->hidden_dim();
    Float* h =
        ctx.arena->Alloc(static_cast<std::size_t>(chars.rows()) * 2 * hd);
    batched::BiLstm(x, table.cols(), hd, chars, fwd, bwd, h, ctx.arena);
    for (int w = 0; w < chars.batch(); ++w) {
      const std::size_t first = chars.offset(w);
      const std::size_t last = first + chars.len(w) - 1;
      Float* row = dst + static_cast<std::size_t>(w) * stride;
      std::memcpy(row, h + last * 2 * hd, hd * kF);
      std::memcpy(row + hd, h + first * 2 * hd + hd, hd * kF);
    }
  };
}

// Fallback for features without a packed emitter (LM embeddings, plugins):
// run the module's normal const forward per sentence and copy the rows
// out. Identical values by construction.
FeatureFill BridgeFill(const embeddings::TokenFeature* f) {
  return [f](ExecContext& ctx, Float* dst, int stride) {
    const int d = f->dim();
    for (int b = 0; b < ctx.layout->batch(); ++b) {
      const Var v = f->Forward(*(*ctx.sentences)[b], /*training=*/false);
      const Tensor& m = v->value;
      const int off = ctx.layout->offset(b);
      for (int t = 0; t < ctx.layout->len(b); ++t) {
        std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                    m.data() + static_cast<std::size_t>(t) * d, d * kF);
      }
    }
  };
}

// ---------------------------------------------------------------------------
// Encoder helpers.
// ---------------------------------------------------------------------------

struct ConvRef {
  const Tensor* w = nullptr;  // [width*in, out]
  const Tensor* b = nullptr;  // [out]
  int width = 0;
  int dilation = 0;
};

ConvRef MakeConvRef(const Conv1d& conv) {
  return {&conv.weight()->value, &conv.bias()->value, conv.width(),
          conv.dilation()};
}

struct RnnLayerRef {
  bool is_lstm = false;
  int hidden = 0;
  batched::LstmDir lstm_fwd, lstm_bwd;
  batched::GruDir gru_fwd, gru_bwd;
};

bool MakeRnnLayerRef(const BiRnn& layer, RnnLayerRef* out) {
  if (const auto* fl = dynamic_cast<const LstmCell*>(&layer.forward_cell())) {
    const auto* bl = dynamic_cast<const LstmCell*>(&layer.backward_cell());
    if (bl == nullptr) return false;
    out->is_lstm = true;
    out->hidden = fl->hidden_dim();
    out->lstm_fwd = {&fl->gates().weight()->value, &fl->gates().bias()->value};
    out->lstm_bwd = {&bl->gates().weight()->value, &bl->gates().bias()->value};
    return true;
  }
  if (const auto* fg = dynamic_cast<const GruCell*>(&layer.forward_cell())) {
    const auto* bg = dynamic_cast<const GruCell*>(&layer.backward_cell());
    if (bg == nullptr) return false;
    out->is_lstm = false;
    out->hidden = fg->hidden_dim();
    out->gru_fwd = {&fg->rz().weight()->value, &fg->rz().bias()->value,
                    &fg->candidate().weight()->value,
                    &fg->candidate().bias()->value};
    out->gru_bwd = {&bg->rz().weight()->value, &bg->rz().bias()->value,
                    &bg->candidate().weight()->value,
                    &bg->candidate().bias()->value};
    return true;
  }
  return false;
}

}  // namespace

InferencePlan::InferencePlan(const PlanModules& modules) {
  DLNER_CHECK(modules.representation != nullptr);
  DLNER_CHECK(modules.encoder != nullptr);
  DLNER_CHECK(modules.decoder != nullptr);

  // --- Representation: per-feature column fills into one packed buffer ---
  struct Slice {
    int col;
    FeatureFill fill;
  };
  auto slices = std::make_shared<std::vector<Slice>>();
  bool features_batched = true;
  int col = 0;
  for (const auto& feature : modules.representation->features()) {
    FeatureFill fill;
    if (const auto* w = dynamic_cast<const embeddings::WordEmbeddingFeature*>(
            feature.get())) {
      fill = WordFill(w);
    } else if (dynamic_cast<const embeddings::WordShapeFeature*>(
                   feature.get()) != nullptr) {
      fill = ShapeFill();
    } else if (const auto* g = dynamic_cast<const embeddings::GazetteerFeature*>(
                   feature.get())) {
      fill = GazetteerFill(g);
    } else if (const auto* cc = dynamic_cast<const embeddings::CharCnnFeature*>(
                   feature.get())) {
      fill = CharCnnFill(cc);
    } else if (const auto* cr = dynamic_cast<const embeddings::CharRnnFeature*>(
                   feature.get())) {
      fill = CharRnnFill(cr);
    } else {
      fill = BridgeFill(feature.get());
      features_batched = false;
    }
    slices->push_back({col, std::move(fill)});
    col += feature->dim();
  }
  const int rep_dim = modules.representation->dim();
  DLNER_CHECK_EQ(col, rep_dim);
  steps_.push_back({"embed", nullptr, [slices, rep_dim](ExecContext& ctx) {
                      Float* rep = ctx.arena->Alloc(
                          static_cast<std::size_t>(ctx.layout->rows()) *
                          rep_dim);
                      for (const Slice& s : *slices) {
                        s.fill(ctx, rep + s.col, rep_dim);
                      }
                      ctx.cur = rep;
                      ctx.cur_dim = rep_dim;
                    }});

  // --- Encoder ---
  std::string encoder_desc;
  bool encoder_batched = true;
  const int enc_dim = modules.encoder->out_dim();
  if (const auto* mlp =
          dynamic_cast<const encoders::MlpEncoder*>(modules.encoder)) {
    encoder_desc = "mlp";
    const Tensor* w = &mlp->hidden().weight()->value;
    const Tensor* b = &mlp->hidden().bias()->value;
    steps_.push_back(
        {"encode", "encode/mlp", [w, b, enc_dim](ExecContext& ctx) {
           const int rows = ctx.layout->rows();
           Float* out =
               ctx.arena->Alloc(static_cast<std::size_t>(rows) * enc_dim);
           batched::Affine(ctx.cur, rows, *w, *b, out, batched::Act::kTanh);
           ctx.cur = out;
           ctx.cur_dim = enc_dim;
         }});
  } else if (const auto* cnn =
                 dynamic_cast<const encoders::CnnEncoder*>(modules.encoder)) {
    encoder_desc = "cnn";
    auto convs = std::make_shared<std::vector<ConvRef>>();
    for (const auto& layer : cnn->layers()) {
      convs->push_back(MakeConvRef(*layer));
    }
    const int hidden = cnn->hidden_dim();
    const bool global = cnn->global_feature();
    steps_.push_back(
        {"encode", "encode/cnn", [convs, hidden, global](ExecContext& ctx) {
           const int rows = ctx.layout->rows();
           const Float* cur = ctx.cur;
           int d = ctx.cur_dim;
           for (const ConvRef& conv : *convs) {
             Float* h =
                 ctx.arena->Alloc(static_cast<std::size_t>(rows) * hidden);
             batched::ConvSegments(cur, d, *ctx.layout, conv.width,
                                   conv.dilation, *conv.w, *conv.b, h,
                                   batched::Act::kRelu);
             cur = h;
             d = hidden;
           }
           if (global) {
             Float* g =
                 ctx.arena->Alloc(static_cast<std::size_t>(rows) * 2 * hidden);
             batched::GlobalMaxConcat(cur, hidden, *ctx.layout, g);
             cur = g;
             d = 2 * hidden;
           }
           ctx.cur = cur;
           ctx.cur_dim = d;
         }});
  } else if (const auto* idcnn = dynamic_cast<const encoders::IdCnnEncoder*>(
                 modules.encoder)) {
    encoder_desc = "idcnn";
    const Tensor* pw = &idcnn->project().weight()->value;
    const Tensor* pb = &idcnn->project().bias()->value;
    auto convs = std::make_shared<std::vector<ConvRef>>();
    auto norms = std::make_shared<std::vector<std::pair<const Tensor*,
                                                        const Tensor*>>>();
    for (const auto& conv : idcnn->block()) {
      convs->push_back(MakeConvRef(*conv));
    }
    for (const auto& norm : idcnn->norms()) {
      norms->push_back({&norm->gain()->value, &norm->bias()->value});
    }
    DLNER_CHECK_EQ(convs->size(), norms->size());
    const int hidden = enc_dim;
    const int iterations = idcnn->iterations();
    steps_.push_back(
        {"encode", "encode/idcnn", [pw, pb, convs, norms, hidden,
                         iterations](ExecContext& ctx) {
           const int rows = ctx.layout->rows();
           Float* h = ctx.arena->Alloc(static_cast<std::size_t>(rows) * hidden);
           batched::Affine(ctx.cur, rows, *pw, *pb, h, batched::Act::kRelu);
           for (int it = 0; it < iterations; ++it) {
             for (std::size_t i = 0; i < convs->size(); ++i) {
               const ConvRef& conv = (*convs)[i];
               Float* c =
                   ctx.arena->Alloc(static_cast<std::size_t>(rows) * hidden);
               batched::ConvSegments(h, hidden, *ctx.layout, conv.width,
                                     conv.dilation, *conv.w, *conv.b, c,
                                     batched::Act::kRelu);
               Float* normed =
                   ctx.arena->Alloc(static_cast<std::size_t>(rows) * hidden);
               batched::LayerNormRows(c, rows, hidden, *(*norms)[i].first,
                                      *(*norms)[i].second, normed);
               h = normed;
             }
           }
           ctx.cur = h;
           ctx.cur_dim = hidden;
         }});
  } else if (const auto* rnn =
                 dynamic_cast<const encoders::RnnEncoder*>(modules.encoder)) {
    // BiRnn always pairs two LstmCells or two GruCells, and RnnEncoder has
    // at least one layer, so every RNN encoder has a packed emitter.
    auto layers = std::make_shared<std::vector<RnnLayerRef>>();
    for (const auto& layer : rnn->layers()) {
      RnnLayerRef ref;
      DLNER_CHECK(MakeRnnLayerRef(*layer, &ref));
      layers->push_back(ref);
    }
    encoder_desc = layers->front().is_lstm ? "bilstm" : "bigru";
    steps_.push_back({"encode", "encode/rnn", [layers](ExecContext& ctx) {
                        const int rows = ctx.layout->rows();
                        const Float* cur = ctx.cur;
                        int d = ctx.cur_dim;
                        for (const RnnLayerRef& layer : *layers) {
                          Float* out = ctx.arena->Alloc(
                              static_cast<std::size_t>(rows) * 2 *
                              layer.hidden);
                          if (layer.is_lstm) {
                            batched::BiLstm(cur, d, layer.hidden,
                                            *ctx.layout, layer.lstm_fwd,
                                            layer.lstm_bwd, out, ctx.arena);
                          } else {
                            batched::BiGru(cur, d, layer.hidden, *ctx.layout,
                                           layer.gru_fwd, layer.gru_bwd, out,
                                           ctx.arena);
                          }
                          cur = out;
                          d = 2 * layer.hidden;
                        }
                        ctx.cur = cur;
                        ctx.cur_dim = d;
                      }});
  } else {
    encoder_batched = false;
    encoder_desc = "eager";
    // Eager bridge: wrap each segment's packed rows in a constant Tensor and
    // run the encoder's normal const forward on them and the sentence's
    // tokens. Covers transformer, brnn and any future encoder without a
    // packed emitter.
    const encoders::ContextEncoder* enc = modules.encoder;
    steps_.push_back({"encode", nullptr, [enc, enc_dim](ExecContext& ctx) {
                        const int rows = ctx.layout->rows();
                        Float* out = ctx.arena->Alloc(
                            static_cast<std::size_t>(rows) * enc_dim);
                        for (int b = 0; b < ctx.layout->batch(); ++b) {
                          const int off = ctx.layout->offset(b);
                          const int len = ctx.layout->len(b);
                          if (len == 0) continue;
                          Tensor in({len, ctx.cur_dim});
                          std::memcpy(
                              in.data(),
                              ctx.cur + static_cast<std::size_t>(off) *
                                            ctx.cur_dim,
                              static_cast<std::size_t>(len) * ctx.cur_dim *
                                  kF);
                          const Var encoded =
                              enc->Encode(Constant(std::move(in)),
                                          *(*ctx.sentences)[b],
                                          /*training=*/false);
                          std::memcpy(
                              out + static_cast<std::size_t>(off) * enc_dim,
                              encoded->value.data(),
                              static_cast<std::size_t>(len) * enc_dim * kF);
                        }
                        ctx.cur = out;
                        ctx.cur_dim = enc_dim;
                      }});
  }

  // --- Decoder ---
  std::string decoder_desc;
  bool decoder_batched = true;
  if (const auto* softmax =
          dynamic_cast<const decoders::SoftmaxDecoder*>(modules.decoder)) {
    decoder_desc = "softmax";
    const Tensor* w = &softmax->proj().weight()->value;
    const Tensor* b = &softmax->proj().bias()->value;
    const int k = softmax->proj().out_dim();
    steps_.push_back({"decode", "decode/softmax", [softmax, w, b,
                                                   k](ExecContext& ctx) {
                        const int rows = ctx.layout->rows();
                        Float* logits =
                            ctx.arena->Alloc(static_cast<std::size_t>(rows) * k);
                        batched::Affine(ctx.cur, rows, *w, *b, logits);
                        std::vector<int> best;
                        for (int s = 0; s < ctx.layout->batch(); ++s) {
                          const int off = ctx.layout->offset(s);
                          const int len = ctx.layout->len(s);
                          best.assign(len, 0);
                          for (int t = 0; t < len; ++t) {
                            const Float* row =
                                logits + static_cast<std::size_t>(off + t) * k;
                            int arg = 0;
                            for (int j = 1; j < k; ++j) {
                              if (row[j] > row[arg]) arg = j;
                            }
                            best[t] = arg;
                          }
                          (*ctx.out)[s] = softmax->tags().TagIdsToSpans(best);
                        }
                      }});
  } else if (const auto* crf =
                 dynamic_cast<const decoders::CrfDecoder*>(modules.decoder)) {
    decoder_desc = "crf";
    const Tensor* w = &crf->proj().weight()->value;
    const Tensor* b = &crf->proj().bias()->value;
    const int k = crf->proj().out_dim();
    steps_.push_back({"decode", "decode/crf", [crf, w, b,
                                               k](ExecContext& ctx) {
                        const int rows = ctx.layout->rows();
                        Float* em =
                            ctx.arena->Alloc(static_cast<std::size_t>(rows) * k);
                        batched::Affine(ctx.cur, rows, *w, *b, em);
                        for (int s = 0; s < ctx.layout->batch(); ++s) {
                          const int len = ctx.layout->len(s);
                          if (len == 0) continue;
                          const Float* emissions =
                              em + static_cast<std::size_t>(
                                       ctx.layout->offset(s)) * k;
                          (*ctx.out)[s] = crf->tags().TagIdsToSpans(
                              crf->ViterbiPath(emissions, len));
                        }
                      }});
  } else {
    // Eager bridge for segment-level and autoregressive decoders (semicrf,
    // rnn, pointer, fofe): per segment, hand the packed encodings to the
    // decoder's normal Predict.
    decoder_desc = "eager";
    decoder_batched = false;
    const decoders::TagDecoder* dec = modules.decoder;
    steps_.push_back({"decode", nullptr, [dec](ExecContext& ctx) {
                        for (int s = 0; s < ctx.layout->batch(); ++s) {
                          const int off = ctx.layout->offset(s);
                          const int len = ctx.layout->len(s);
                          if (len == 0) continue;
                          Tensor enc({len, ctx.cur_dim});
                          std::memcpy(
                              enc.data(),
                              ctx.cur + static_cast<std::size_t>(off) *
                                            ctx.cur_dim,
                              static_cast<std::size_t>(len) * ctx.cur_dim *
                                  kF);
                          (*ctx.out)[s] =
                              dec->Predict(Constant(std::move(enc)));
                        }
                      }});
  }

  fully_batched_ = features_batched && encoder_batched && decoder_batched;
  description_ = "plan[embed=" +
                 std::string(features_batched ? "batched" : "mixed") +
                 " encoder=" + encoder_desc +
                 (encoder_batched ? ":batched" : ":eager") +
                 " decoder=" + decoder_desc +
                 (decoder_batched ? ":batched" : ":eager") + "]";
}

void InferencePlan::Execute(
    const std::vector<const std::vector<std::string>*>& sentences,
    std::vector<std::vector<text::Span>>* out) const {
  DLNER_CHECK_EQ(sentences.size(), out->size());
  if (sentences.empty()) return;
  NoGradGuard no_grad;
  obs::ScopedSpan span("plan/batch");
  // One arena per worker thread: capacity persists across batches, so after
  // warm-up the packed path allocates nothing from the heap.
  thread_local Arena arena;
  arena.Reset();
  batched::BatchLayout layout;
  for (const auto* tokens : sentences) {
    layout.Add(static_cast<int>(tokens->size()));
  }
  ExecContext ctx;
  ctx.arena = &arena;
  ctx.layout = &layout;
  ctx.sentences = &sentences;
  ctx.out = out;
  for (const Step& step : steps_) {
    obs::ScopedSpan step_span(step.name);
    if (step.detail != nullptr) {
      obs::ScopedSpan detail_span(step.detail);
      step.run(ctx);
    } else {
      step.run(ctx);
    }
  }
  if (obs::MetricsEnabled()) {
    obs::Metrics& m = obs::Metrics::Get();
    m.gauge("tensor.arena.bytes_reserved")
        ->SetMax(static_cast<double>(arena.bytes_reserved()));
    m.gauge("tensor.arena.high_water")
        ->SetMax(static_cast<double>(arena.high_water()));
    m.counter("plan.batches")->Add(1);
    m.counter("plan.sentences")->Add(static_cast<std::int64_t>(sentences.size()));
  }
}

}  // namespace dlner::plan
