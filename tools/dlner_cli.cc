// dlner — command-line front end of the toolkit (the survey Section 5.2
// vision: "an easy-to-use NER toolkit ... with some standardized modules:
// data-processing, input representation, context encoder, tag decoder, and
// effectiveness measure").
//
// Subcommands:
//   dlner generate --dataset conll-like --n 400 --seed 1 --out train.conll
//   dlner train    --train train.conll --model model.bin
//                  [--dev dev.conll] [--encoder bilstm] [--decoder crf]
//                  [--scheme bioes] [--char-cnn] [--char-rnn] [--shape]
//                  [--gazetteer [coverage]] [--char-lm] [--token-lm]
//                  [--epochs 12] [--lr 0.015] [--word-dropout 0.2]
//   dlner tag      --model model.bin --text "John Smith visited Paris ."
//   dlner tag      --model model.bin --in raw.conll --out tagged.conll
//   dlner eval     --model model.bin --test test.conll [--relaxed]
//
// Flag parsing is strict (core/flags.h): each subcommand declares the
// flags it accepts, unknown flags and malformed numeric values exit 1
// instead of silently becoming defaults, and seeds are full uint64.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "core/flags.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "embeddings/lm.h"
#include "stream/stream_tagger.h"
#include "text/conll.h"
#include "tools/tool_common.h"

namespace {

using namespace dlner;
using core::Args;
using core::FlagKind;
using core::FlagSpec;

FlagSpec GenerateSpec() {
  FlagSpec spec{{"dataset", FlagKind::kValue}, {"n", FlagKind::kValue},
                {"seed", FlagKind::kValue},    {"out", FlagKind::kValue},
                {"scheme", FlagKind::kValue}};
  tools::AddObsFlags(&spec);
  return spec;
}

FlagSpec TrainSpec() {
  FlagSpec spec{{"train", FlagKind::kValue},
                {"model", FlagKind::kValue},
                {"dev", FlagKind::kValue},
                {"encoder", FlagKind::kValue},
                {"decoder", FlagKind::kValue},
                {"scheme", FlagKind::kValue},
                {"char-cnn", FlagKind::kBool},
                {"char-rnn", FlagKind::kBool},
                {"shape", FlagKind::kBool},
                {"gazetteer", FlagKind::kOptionalValue},
                {"char-lm", FlagKind::kBool},
                {"token-lm", FlagKind::kBool},
                {"word-dim", FlagKind::kValue},
                {"hidden-dim", FlagKind::kValue},
                {"word-dropout", FlagKind::kValue},
                {"epochs", FlagKind::kValue},
                {"lr", FlagKind::kValue},
                {"patience", FlagKind::kValue},
                {"seed", FlagKind::kValue},
                {"threads", FlagKind::kValue}};
  tools::AddObsFlags(&spec);
  return spec;
}

FlagSpec TagSpec() {
  FlagSpec spec{{"model", FlagKind::kValue},
                {"text", FlagKind::kValue},
                {"in", FlagKind::kValue},
                {"out", FlagKind::kValue},
                {"stream", FlagKind::kBool},
                {"doc-context", FlagKind::kBool},
                {"chunk-bytes", FlagKind::kValue},
                {"threads", FlagKind::kValue}};
  tools::AddObsFlags(&spec);
  return spec;
}

FlagSpec EvalSpec() {
  FlagSpec spec{{"model", FlagKind::kValue},
                {"test", FlagKind::kValue},
                {"relaxed", FlagKind::kBool},
                {"threads", FlagKind::kValue}};
  tools::AddObsFlags(&spec);
  return spec;
}

int CmdGenerate(const Args& args) {
  const std::string name = args.Get("dataset", "conll-like");
  const int n = args.GetInt("n", 400);
  const uint64_t seed = args.GetUInt64("seed", 1);
  const std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 1;
  }
  text::Corpus corpus = data::MakeDataset(name, n, seed);
  // Nested corpora cannot be written as flat tag sequences; keep the
  // outermost layer for CoNLL output.
  for (auto& s : corpus.sentences) {
    if (!text::SpansAreFlat(s.spans)) {
      std::sort(s.spans.begin(), s.spans.end(),
                [](const text::Span& a, const text::Span& b) {
                  return (a.end - a.start) > (b.end - b.start);
                });
      std::vector<text::Span> flat;
      for (const text::Span& sp : s.spans) {
        bool overlaps = false;
        for (const text::Span& kept : flat) {
          if (sp.start < kept.end && kept.start < sp.end) overlaps = true;
        }
        if (!overlaps) flat.push_back(sp);
      }
      std::sort(flat.begin(), flat.end());
      s.spans = std::move(flat);
    }
  }
  text::TagSet tags(corpus.EntityTypes(),
                    text::TagSchemeFromString(args.Get("scheme", "bioes")));
  if (!text::WriteConllFile(out, corpus, tags)) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %d sentences to %s\n", corpus.size(), out.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  const std::string train_path = args.Get("train");
  const std::string model_path = args.Get("model");
  if (train_path.empty() || model_path.empty()) {
    std::fprintf(stderr, "train: --train and --model are required\n");
    return 1;
  }
  text::Corpus train;
  if (!text::ReadConllFile(train_path, &train)) {
    std::fprintf(stderr, "train: cannot read %s\n", train_path.c_str());
    return 1;
  }
  text::Corpus dev;
  const bool has_dev =
      args.Has("dev") && text::ReadConllFile(args.Get("dev"), &dev);

  core::NerConfig config;
  config.encoder = args.Get("encoder", "bilstm");
  config.decoder = args.Get("decoder", "crf");
  config.scheme = args.Get("scheme", "bioes");
  config.use_char_cnn = args.Has("char-cnn");
  config.use_char_rnn = args.Has("char-rnn");
  config.use_shape = args.Has("shape");
  config.use_gazetteer = args.Has("gazetteer");
  config.use_char_lm = args.Has("char-lm");
  config.use_token_lm = args.Has("token-lm");
  config.word_dim = args.GetInt("word-dim", 24);
  config.hidden_dim = args.GetInt("hidden-dim", 24);
  config.word_unk_dropout = args.GetDouble("word-dropout", 0.2);
  config.seed = args.GetUInt64("seed", 42);

  core::TrainConfig tc;
  tc.epochs = args.GetInt("epochs", 12);
  tc.lr = args.GetDouble("lr", 0.015);
  tc.patience = has_dev ? args.GetInt("patience", 4) : 0;

  // External resources built from the training data. They end up inside
  // the checkpoint, so the saved model stays self-contained.
  core::Resources res;
  data::Gazetteer gaz;
  std::unique_ptr<embeddings::CharLm> char_lm;
  std::unique_ptr<embeddings::TokenLm> token_lm;
  std::vector<std::vector<std::string>> lm_sentences;
  if (config.use_char_lm || config.use_token_lm) {
    for (const auto& s : train.sentences) {
      if (!s.tokens.empty()) lm_sentences.push_back(s.tokens);
    }
  }
  if (config.use_gazetteer) {
    // "--gazetteer 0.7" keeps each distinct mention with probability 0.7;
    // the bare flag (stored as the sentinel "true") keeps them all.
    const std::string cov = args.Get("gazetteer", "true");
    double coverage = 1.0;
    if (cov != "true" && !core::ParseDouble(cov, &coverage)) {
      std::fprintf(stderr, "train: --gazetteer: invalid coverage \"%s\"\n",
                   cov.c_str());
      return 1;
    }
    gaz = data::Gazetteer::FromCorpus(train, coverage, config.seed);
    res.gazetteer = &gaz;
    std::printf("gazetteer: %d entries, %zu types\n", gaz.size(),
                gaz.types().size());
  }
  if (config.use_char_lm) {
    embeddings::CharLm::Config lc;
    lc.seed = config.seed;
    char_lm = std::make_unique<embeddings::CharLm>(lc);
    std::printf("pre-training char-LM... nll=%.3f\n",
                char_lm->Train(lm_sentences));
    res.char_lm = char_lm.get();
  }
  if (config.use_token_lm) {
    embeddings::TokenLm::Config lc;
    lc.seed = config.seed;
    token_lm = std::make_unique<embeddings::TokenLm>(lc);
    std::printf("pre-training token-LM... nll=%.3f\n",
                token_lm->Train(lm_sentences));
    res.token_lm = token_lm.get();
  }

  std::printf("training %s on %d sentences...\n",
              config.Describe().c_str(), train.size());
  auto pipeline = core::Pipeline::Train(config, tc, train,
                                        has_dev ? &dev : nullptr,
                                        train.EntityTypes(), res);
  if (has_dev) {
    std::printf("best dev F1 = %.3f\n", pipeline->train_result().best_dev_f1);
  }
  if (!pipeline->Save(model_path)) {
    std::fprintf(stderr, "train: cannot save %s\n", model_path.c_str());
    return 1;
  }
  std::printf("model saved to %s\n", model_path.c_str());
  return 0;
}

// `dlner tag --stream`: --in is RAW TEXT (one or more documents), not
// CoNLL. Bytes are pushed through the streaming tagger in --chunk-bytes
// chunks — the emitted spans are identical for any chunk size — and the
// tagged sentences are written in CoNLL form to --out (stdout by default).
// --doc-context turns on the entity-consistency memory for the document.
int RunTagStream(const Args& args, core::Pipeline* pipeline) {
  std::ifstream is(args.Get("in"), std::ios::binary);
  if (!args.Has("in") || !is) {
    std::fprintf(stderr, "tag --stream: need a readable raw-text --in file\n");
    return 1;
  }
  stream::StreamOptions opts;
  opts.doc_context = args.Has("doc-context");
  stream::StreamTagger tagger(pipeline, opts);
  // One CLI invocation streams one document; context 1 groups its
  // stream/feed|flush spans (and the plan/batch spans under them) in a
  // merged trace the same way serve batch ids group server traffic.
  tagger.set_trace_context(1);
  const int chunk_bytes = std::max(args.GetInt("chunk-bytes", 4096), 1);

  text::Corpus tagged;
  auto absorb = [&tagged](std::vector<stream::TaggedSentence> emitted) {
    for (stream::TaggedSentence& ts : emitted) {
      text::Sentence s;
      s.tokens = std::move(ts.tokens);
      s.spans = std::move(ts.spans);
      tagged.sentences.push_back(std::move(s));
    }
  };
  std::vector<char> buf(static_cast<std::size_t>(chunk_bytes));
  while (is.read(buf.data(), chunk_bytes), is.gcount() > 0) {
    absorb(tagger.Feed(
        std::string_view(buf.data(), static_cast<std::size_t>(is.gcount()))));
  }
  absorb(tagger.Flush());

  text::TagSet tags(pipeline->model()->entity_types(),
                    text::TagSchemeFromString(
                        pipeline->model()->config().scheme));
  if (args.Has("out")) {
    if (!text::WriteConllFile(args.Get("out"), tagged, tags)) {
      std::fprintf(stderr, "tag: cannot write %s\n", args.Get("out").c_str());
      return 1;
    }
    std::fprintf(stderr, "tagged %d sentences (doc-context %s) -> %s\n",
                 tagged.size(), tagger.doc_context() ? "on" : "off",
                 args.Get("out").c_str());
  } else {
    text::WriteConll(std::cout, tagged, tags);
  }
  return 0;
}

int CmdTag(const Args& args) {
  auto pipeline = core::Pipeline::Load(args.Get("model"));
  if (pipeline == nullptr) {
    std::fprintf(stderr, "tag: cannot load model %s\n",
                 args.Get("model").c_str());
    return 1;
  }
  if (args.Has("stream")) return RunTagStream(args, pipeline.get());
  if (args.Has("text")) {
    text::Sentence tagged = pipeline->TagText(args.Get("text"));
    for (int t = 0; t < tagged.size(); ++t) std::printf("%s ",
                                                        tagged.tokens[t].c_str());
    std::printf("\n");
    for (const text::Span& sp : tagged.spans) {
      std::printf("  [%d,%d) %-10s", sp.start, sp.end, sp.type.c_str());
      for (int t = sp.start; t < sp.end; ++t) {
        std::printf(" %s", tagged.tokens[t].c_str());
      }
      std::printf("\n");
    }
    return 0;
  }
  text::Corpus input;
  if (!args.Has("in") || !text::ReadConllFile(args.Get("in"), &input)) {
    std::fprintf(stderr, "tag: need --text or a readable --in file\n");
    return 1;
  }
  std::vector<std::vector<text::Span>> predicted = pipeline->TagCorpus(input);
  for (int i = 0; i < input.size(); ++i) {
    input.sentences[i].spans = std::move(predicted[i]);
  }
  text::TagSet tags(pipeline->model()->entity_types(),
                    text::TagSchemeFromString(
                        pipeline->model()->config().scheme));
  const std::string out = args.Get("out", args.Get("in") + ".tagged");
  if (!text::WriteConllFile(out, input, tags)) {
    std::fprintf(stderr, "tag: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("tagged %d sentences -> %s\n", input.size(), out.c_str());
  return 0;
}

int CmdEval(const Args& args) {
  auto pipeline = core::Pipeline::Load(args.Get("model"));
  if (pipeline == nullptr) {
    std::fprintf(stderr, "eval: cannot load model %s\n",
                 args.Get("model").c_str());
    return 1;
  }
  text::Corpus test;
  if (!text::ReadConllFile(args.Get("test"), &test)) {
    std::fprintf(stderr, "eval: cannot read %s\n", args.Get("test").c_str());
    return 1;
  }
  eval::ExactResult result = pipeline->Evaluate(test);
  std::printf("exact match: P=%.3f R=%.3f micro-F1=%.3f macro-F1=%.3f\n",
              result.micro.precision(), result.micro.recall(),
              result.micro.f1(), result.macro_f1);
  for (const auto& [type, prf] : result.per_type) {
    std::printf("  %-14s P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)\n",
                type.c_str(), prf.precision(), prf.recall(), prf.f1(),
                prf.tp, prf.fp, prf.fn);
  }
  if (args.Has("relaxed")) {
    eval::RelaxedMatchEvaluator relaxed;
    std::vector<std::vector<text::Span>> predicted =
        pipeline->TagCorpus(test);
    for (int i = 0; i < test.size(); ++i) {
      relaxed.Add(test.sentences[i].spans, predicted[i]);
    }
    eval::RelaxedResult r = relaxed.Result();
    std::printf("relaxed (MUC): type-F1=%.3f text-F1=%.3f muc-F1=%.3f\n",
                r.type.f1(), r.text.f1(), r.muc_f1);
  }
  return 0;
}

void Usage() {
  std::printf(
      "dlner <generate|train|tag|eval> [flags]\n"
      "  generate --dataset NAME --n N --seed S --out FILE [--scheme bioes]\n"
      "  train    --train FILE --model FILE [--dev FILE] [--encoder E]\n"
      "           [--decoder D] [--char-cnn] [--char-rnn] [--shape]\n"
      "           [--gazetteer [COVERAGE]] [--char-lm] [--token-lm]\n"
      "           [--epochs N] [--lr X] [--word-dropout X]\n"
      "           [--threads N]\n"
      "  tag      --model FILE (--text \"...\" | --in FILE [--out FILE])\n"
      "           [--threads N]\n"
      "           [--stream [--doc-context] [--chunk-bytes N]]\n"
      "           (--stream: --in is raw text; see docs/STREAMING.md)\n"
      "  eval     --model FILE --test FILE [--relaxed] [--threads N]\n"
      "--threads N: worker threads for corpus evaluation/tagging\n"
      "             (0 = hardware concurrency, the default; at most 1024)\n"
      "observability (any subcommand; see docs/OBSERVABILITY.md):\n"
      "  --trace-out FILE    record spans, write Chrome trace_event JSON\n"
      "  --metrics-out FILE  collect metrics, write JSON snapshot\n"
      "  --log-level LEVEL   debug|info|warn|error|off (default warn)\n"
      "datasets: conll-like ontonotes-like wnut-like fine-grained-like\n"
      "          nested-like bio-like\n"
      "encoders: mlp cnn idcnn bilstm bigru transformer brnn\n"
      "decoders: softmax crf semicrf rnn pointer fofe\n"
      "serving: see dlner_serve (docs/SERVING.md)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string cmd = argv[1];
  FlagSpec spec;
  if (cmd == "generate") spec = GenerateSpec();
  else if (cmd == "train") spec = TrainSpec();
  else if (cmd == "tag") spec = TagSpec();
  else if (cmd == "eval") spec = EvalSpec();
  else {
    Usage();
    return 1;
  }
  Args args;
  if (!args.Parse(argc, argv, 2, spec)) {
    std::fprintf(stderr, "dlner %s: %s\n", cmd.c_str(), args.error().c_str());
    return 1;
  }
  if (!tools::ApplyObsFlags(args) || !tools::ApplyThreadsFlag(args)) {
    return 1;
  }
  int rc = -1;
  if (cmd == "generate") rc = CmdGenerate(args);
  if (cmd == "train") rc = CmdTrain(args);
  if (cmd == "tag") rc = CmdTag(args);
  if (cmd == "eval") rc = CmdEval(args);
  if (rc < 0) {
    Usage();
    return 1;
  }
  if (!tools::FlushObsArtifacts(args)) rc = rc == 0 ? 1 : rc;
  return rc;
}
