#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/gazetteer.h"
#include "embeddings/lm.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "runtime/runtime.h"
#include "support/corpus_gen.h"
#include "tensor/nn.h"

namespace dlner {
namespace {

TEST(SerializeTest, TensorRoundTrip) {
  Tensor t({2, 3}, {1.5, -2.0, 0.0, 3.25, 4.0, -5.5});
  std::stringstream ss;
  SaveTensor(ss, t);
  Tensor back;
  ASSERT_TRUE(LoadTensor(ss, &back));
  ASSERT_TRUE(back.SameShape(t));
  for (int i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(back[i], t[i]);
}

TEST(SerializeTest, ParameterRoundTrip) {
  Rng rng(1);
  Linear lin(4, 3, &rng, "lin");
  std::vector<Var> params = lin.Parameters();
  std::stringstream ss;
  SaveParameters(ss, params);

  // Build a structurally identical module and restore into it.
  Rng rng2(999);
  Linear lin2(4, 3, &rng2, "lin");
  std::vector<Var> params2 = lin2.Parameters();
  std::vector<const Float*> buffers;
  for (const Var& p : params2) buffers.push_back(p->value.data());
  ASSERT_TRUE(LoadParameters(ss, params2));
  for (size_t k = 0; k < params.size(); ++k) {
    // Read straight into the existing buffer, not swapped for a new one.
    EXPECT_EQ(params2[k]->value.data(), buffers[k]);
    for (int i = 0; i < params[k]->value.size(); ++i) {
      EXPECT_DOUBLE_EQ(params2[k]->value[i], params[k]->value[i]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchFails) {
  Rng rng(2);
  Linear a(4, 3, &rng, "lin");
  std::stringstream ss;
  SaveParameters(ss, a.Parameters());
  Linear b(4, 5, &rng, "lin");  // different out_dim
  EXPECT_FALSE(LoadParameters(ss, b.Parameters()));
}

TEST(SerializeTest, MissingNameFails) {
  Rng rng(3);
  Linear a(2, 2, &rng, "alpha");
  std::stringstream ss;
  SaveParameters(ss, a.Parameters());
  Linear b(2, 2, &rng, "beta");
  EXPECT_FALSE(LoadParameters(ss, b.Parameters()));
}

TEST(SerializeTest, ExtraSavedEntriesTolerated) {
  Rng rng(4);
  Linear a(2, 2, &rng, "a");
  Linear extra(2, 2, &rng, "extra");
  std::vector<Var> all = JoinParameters({&a, &extra});
  std::stringstream ss;
  SaveParameters(ss, all);
  // Restoring only `a` succeeds even though the stream holds more.
  Rng rng2(5);
  Linear a2(2, 2, &rng2, "a");
  EXPECT_TRUE(LoadParameters(ss, a2.Parameters()));
}

TEST(SerializeTest, GarbageInputFails) {
  std::stringstream ss;
  ss << "this is not a checkpoint";
  Rng rng(6);
  Linear a(2, 2, &rng, "a");
  EXPECT_FALSE(LoadParameters(ss, a.Parameters()));
}

TEST(SerializeTest, FileRoundTrip) {
  Rng rng(7);
  Linear lin(3, 3, &rng, "lin");
  const std::string path = ::testing::TempDir() + "/dlner_params.bin";
  ASSERT_TRUE(SaveParametersToFile(path, lin.Parameters()));
  Rng rng2(8);
  Linear lin2(3, 3, &rng2, "lin");
  ASSERT_TRUE(LoadParametersFromFile(path, lin2.Parameters()));
  EXPECT_DOUBLE_EQ(lin2.Parameters()[0]->value[0],
                   lin.Parameters()[0]->value[0]);
}

TEST(SerializeTest, MissingFileFails) {
  Rng rng(9);
  Linear lin(2, 2, &rng, "lin");
  EXPECT_FALSE(LoadParametersFromFile("/nonexistent/dir/x.bin",
                                      lin.Parameters()));
}

// --- Corrupt-input hardening for the tensor reader ---

void PutU32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutI32(std::ostream& os, int32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

TEST(SerializeTest, LoadTensorRejectsHugeElementCount) {
  // A single dim claiming more elements than kMaxTensorElements must fail
  // before any allocation happens.
  std::stringstream ss;
  PutU32(ss, 1);                      // rank
  PutI32(ss, 1 << 30);                // 2^30 elements = 8 GB of doubles
  Tensor t;
  EXPECT_FALSE(LoadTensor(ss, &t));
}

TEST(SerializeTest, LoadTensorRejectsDimProductOverflow) {
  // Each dim fits in i32 but the product overflows any naive i32/i64 math;
  // the bounded running product must reject it.
  std::stringstream ss;
  PutU32(ss, 4);  // rank
  for (int i = 0; i < 4; ++i) PutI32(ss, 0x7fffffff);
  Tensor t;
  EXPECT_FALSE(LoadTensor(ss, &t));
}

TEST(SerializeTest, LoadTensorRejectsNegativeDim) {
  std::stringstream ss;
  PutU32(ss, 2);
  PutI32(ss, 3);
  PutI32(ss, -4);
  Tensor t;
  EXPECT_FALSE(LoadTensor(ss, &t));
}

TEST(SerializeTest, LoadParametersRejectsHugeCount) {
  std::stringstream ss;
  ss.write("DLNR", 4);
  PutU32(ss, 1);           // version
  PutU32(ss, 0xffffffff);  // absurd parameter count
  Rng rng(10);
  Linear lin(2, 2, &rng, "lin");
  EXPECT_FALSE(LoadParameters(ss, lin.Parameters()));
}

// Writes a parameter-stream header claiming `count` entries.
void PutParamsHeader(std::ostream& os, uint32_t count) {
  os.write("DLNR", 4);
  PutU32(os, 1);  // version
  PutU32(os, count);
}

// Writes one entry of shape `dims`; `data_elems` (default: all of them)
// constant doubles follow, so a short count truncates the entry.
void PutEntry(std::ostream& os, const std::string& name,
              const std::vector<int32_t>& dims, double value,
              int data_elems = -1) {
  PutU32(os, static_cast<uint32_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  PutU32(os, static_cast<uint32_t>(dims.size()));
  int numel = 1;
  for (int32_t d : dims) {
    PutI32(os, d);
    numel *= d;
  }
  if (data_elems < 0) data_elems = numel;
  for (int i = 0; i < data_elems; ++i) {
    os.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
}

TEST(SerializeTest, LoadParametersRejectsRepeatedEntry) {
  Rng rng(11);
  Linear lin(4, 3, &rng, "lin");
  {
    // The well-formed stream the cases below corrupt.
    std::stringstream ss;
    PutParamsHeader(ss, 2);
    PutEntry(ss, "lin.W", {4, 3}, 1.0);
    PutEntry(ss, "lin.b", {3}, 2.0);
    ASSERT_TRUE(LoadParameters(ss, lin.Parameters()));
    EXPECT_EQ(lin.Parameters()[1]->value[0], 2.0);
  }
  {
    // lin.W twice and no lin.b: the entry count matches the parameter
    // count, but lin.b would keep whatever it held.
    std::stringstream ss;
    PutParamsHeader(ss, 2);
    PutEntry(ss, "lin.W", {4, 3}, 3.0);
    PutEntry(ss, "lin.W", {4, 3}, 4.0);
    EXPECT_FALSE(LoadParameters(ss, lin.Parameters()));
  }
  {
    // Every parameter present, one of them twice.
    std::stringstream ss;
    PutParamsHeader(ss, 3);
    PutEntry(ss, "lin.W", {4, 3}, 3.0);
    PutEntry(ss, "lin.b", {3}, 5.0);
    PutEntry(ss, "lin.W", {4, 3}, 4.0);
    EXPECT_FALSE(LoadParameters(ss, lin.Parameters()));
  }
  {
    // A repeated entry no parameter claims.
    std::stringstream ss;
    PutParamsHeader(ss, 4);
    PutEntry(ss, "extra", {2}, 0.0);
    PutEntry(ss, "lin.W", {4, 3}, 3.0);
    PutEntry(ss, "lin.b", {3}, 5.0);
    PutEntry(ss, "extra", {2}, 0.0);
    EXPECT_FALSE(LoadParameters(ss, lin.Parameters()));
  }
}

TEST(SerializeTest, LoadParametersRejectsTruncatedSkippedEntry) {
  // An entry no parameter claims is skipped, but its data must be there.
  Rng rng(12);
  Linear lin(2, 2, &rng, "lin");
  std::stringstream ss;
  PutParamsHeader(ss, 3);
  PutEntry(ss, "lin.W", {2, 2}, 1.0);
  PutEntry(ss, "lin.b", {2}, 1.0);
  PutEntry(ss, "extra", {1000}, 0.0, /*data_elems=*/10);
  EXPECT_FALSE(LoadParameters(ss, lin.Parameters()));
}

// --- Full-fidelity pipeline checkpoints for resource-backed models ---

core::NerConfig TinyConfig() {
  core::NerConfig config;
  config.word_dim = 10;
  config.hidden_dim = 8;
  config.input_dropout = 0.1;
  config.seed = 3;
  return config;
}

core::TrainConfig TinyTrain() {
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.lr = 0.02;
  return tc;
}

text::Corpus TinyNews(int n, uint64_t seed) {
  data::GenOptions opts;
  opts.num_sentences = n;
  opts.seed = seed;
  return data::GenerateCorpus(data::Genre::kNews, opts);
}

std::vector<std::vector<std::string>> TokensOf(const text::Corpus& corpus) {
  std::vector<std::vector<std::string>> out;
  for (const auto& s : corpus.sentences) {
    if (!s.tokens.empty()) out.push_back(s.tokens);
  }
  return out;
}

// Trains a resource-backed pipeline, checkpoints it, reloads it, and
// demands a bit-identical Evaluate on held-out data.
void ExpectRoundTripIdentical(const core::NerConfig& config,
                              const core::Resources& res,
                              const std::string& tag) {
  text::Corpus train = TinyNews(20, 21);
  text::Corpus held_out = TinyNews(12, 22);
  auto pipeline =
      core::Pipeline::Train(config, TinyTrain(), train, nullptr,
                            data::EntityTypesFor(data::Genre::kNews), res);
  const std::string path = ::testing::TempDir() + "/dlner_rt_" + tag + ".bin";
  ASSERT_TRUE(pipeline->Save(path));
  auto loaded = core::Pipeline::Load(path);
  ASSERT_NE(loaded, nullptr);

  // Save -> Load -> Save reproduces the checkpoint byte for byte,
  // resource blocks included.
  std::ostringstream saved;
  std::ostringstream resaved;
  ASSERT_TRUE(pipeline->Save(saved));
  ASSERT_TRUE(loaded->Save(resaved));
  EXPECT_EQ(resaved.str(), saved.str());

  const eval::ExactResult before = pipeline->Evaluate(held_out);
  const eval::ExactResult after = loaded->Evaluate(held_out);
  EXPECT_EQ(before.micro.tp, after.micro.tp);
  EXPECT_EQ(before.micro.fp, after.micro.fp);
  EXPECT_EQ(before.micro.fn, after.micro.fn);
  EXPECT_DOUBLE_EQ(before.micro.f1(), after.micro.f1());
  EXPECT_DOUBLE_EQ(before.macro_f1, after.macro_f1);
  for (const auto& s : held_out.sentences) {
    if (!s.tokens.empty()) {
      EXPECT_EQ(pipeline->Tag(s.tokens), loaded->Tag(s.tokens));
    }
  }
}

TEST(PipelineCheckpointTest, GazetteerRoundTripIsBitIdentical) {
  text::Corpus train = TinyNews(20, 21);
  data::Gazetteer gaz = data::Gazetteer::FromCorpus(train, 0.8, 5);
  core::NerConfig config = TinyConfig();
  config.use_gazetteer = true;
  core::Resources res;
  res.gazetteer = &gaz;
  ExpectRoundTripIdentical(config, res, "gaz");
}

TEST(PipelineCheckpointTest, CharLmRoundTripIsBitIdentical) {
  embeddings::CharLm::Config lc;
  lc.epochs = 1;
  embeddings::CharLm lm(lc);
  lm.Train(TokensOf(TinyNews(8, 23)));
  core::NerConfig config = TinyConfig();
  config.use_char_lm = true;
  core::Resources res;
  res.char_lm = &lm;
  ExpectRoundTripIdentical(config, res, "charlm");
}

TEST(PipelineCheckpointTest, TokenLmRoundTripIsBitIdentical) {
  embeddings::TokenLm::Config lc;
  lc.epochs = 1;
  lc.min_count = 1;
  embeddings::TokenLm lm(lc);
  lm.Train(TokensOf(TinyNews(8, 24)));
  core::NerConfig config = TinyConfig();
  config.use_token_lm = true;
  core::Resources res;
  res.token_lm = &lm;
  ExpectRoundTripIdentical(config, res, "tokenlm");
}

TEST(PipelineCheckpointTest, AllResourcesTogetherRoundTrip) {
  text::Corpus train = TinyNews(20, 21);
  data::Gazetteer gaz = data::Gazetteer::FromCorpus(train, 1.0, 6);
  embeddings::CharLm::Config cc;
  cc.epochs = 1;
  embeddings::CharLm char_lm(cc);
  char_lm.Train(TokensOf(TinyNews(6, 25)));
  embeddings::TokenLm::Config tc;
  tc.epochs = 1;
  tc.min_count = 1;
  embeddings::TokenLm token_lm(tc);
  token_lm.Train(TokensOf(TinyNews(6, 26)));

  core::NerConfig config = TinyConfig();
  config.use_gazetteer = true;
  config.use_char_lm = true;
  config.use_token_lm = true;
  core::Resources res;
  res.gazetteer = &gaz;
  res.char_lm = &char_lm;
  res.token_lm = &token_lm;
  ExpectRoundTripIdentical(config, res, "all");
}

TEST(PipelineCheckpointTest, OldFormatVersionRejected) {
  // A v1 header must be rejected by the magic comparison, not misparsed.
  const std::string path = ::testing::TempDir() + "/dlner_v1.bin";
  {
    std::ofstream os(path, std::ios::binary);
    const char v1_magic[] = "DLNERPIPE1";
    os.write(v1_magic, sizeof(v1_magic));
    os.write("rest of an old checkpoint", 25);
  }
  EXPECT_EQ(core::Pipeline::Load(path), nullptr);
}

// Saves one resource-backed checkpoint and returns its bytes.
std::string CheckpointBytes() {
  text::Corpus train = TinyNews(15, 27);
  data::Gazetteer gaz = data::Gazetteer::FromCorpus(train, 1.0, 7);
  core::NerConfig config = TinyConfig();
  config.use_gazetteer = true;
  core::Resources res;
  res.gazetteer = &gaz;
  auto pipeline =
      core::Pipeline::Train(config, TinyTrain(), train, nullptr,
                            data::EntityTypesFor(data::Genre::kNews), res);
  const std::string path = ::testing::TempDir() + "/dlner_corrupt_src.bin";
  EXPECT_TRUE(pipeline->Save(path));
  std::ifstream is(path, std::ios::binary);
  std::stringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PipelineCheckpointTest, TruncatedCheckpointsRejected) {
  const std::string bytes = CheckpointBytes();
  const std::string path = ::testing::TempDir() + "/dlner_truncated.bin";
  // Every prefix must fail by return value — no crash, no huge allocation.
  for (size_t frac = 0; frac < 16; ++frac) {
    const size_t len = bytes.size() * frac / 16;
    WriteBytes(path, bytes.substr(0, len));
    EXPECT_EQ(core::Pipeline::Load(path), nullptr) << "prefix " << len;
  }
  WriteBytes(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(core::Pipeline::Load(path), nullptr);
}

TEST(PipelineCheckpointTest, BitFlippedHeadersDoNotCrash) {
  const std::string bytes = CheckpointBytes();
  const std::string path = ::testing::TempDir() + "/dlner_flipped.bin";
  // Flip every bit of the header region (magic, config, counts, lengths)
  // one byte at a time. A flip may survive as a benign value change; what
  // is forbidden is a crash, a CHECK-abort, or an unbounded allocation.
  const size_t header = std::min<size_t>(bytes.size(), 256);
  for (size_t i = 0; i < header; ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0xff);
    WriteBytes(path, corrupted);
    auto loaded = core::Pipeline::Load(path);  // either outcome is fine
    (void)loaded;
  }
  SUCCEED();
}

TEST(PipelineCheckpointTest, CheckpointCutInsideWordTableRejected) {
  const std::string bytes = CheckpointBytes();
  // The word table's entry: name, rank 2, two dims, then its data.
  const std::string name = "word_emb.table";
  const size_t at = bytes.find(name);
  ASSERT_NE(at, std::string::npos);
  const size_t data = at + name.size() + 3 * sizeof(uint32_t);
  int32_t dims[2];
  std::memcpy(dims, bytes.data() + data - sizeof(dims), sizeof(dims));
  const size_t data_bytes = size_t{8} * dims[0] * dims[1];
  ASSERT_GT(data_bytes, 0u);
  ASSERT_LE(data + data_bytes, bytes.size());
  const std::string path = ::testing::TempDir() + "/dlner_cut_table.bin";
  for (const size_t keep : {size_t{1}, data_bytes / 2, data_bytes - 1}) {
    WriteBytes(path, bytes.substr(0, data + keep));
    EXPECT_EQ(core::Pipeline::Load(path), nullptr) << "kept " << keep;
  }
}

size_t ParameterBytes(const std::vector<Var>& params) {
  size_t bytes = 0;
  for (const Var& p : params) bytes += p->value.size() * sizeof(Float);
  return bytes;
}

TEST(PipelineCheckpointTest, LoadAllocatesEachParameterOnce) {
  // A word table much larger than the rest of the model, as in a served
  // cell with a full-size vocabulary.
  core::NerConfig config = TinyConfig();
  config.word_dim = 64;
  const text::Corpus train = TinyNews(30, 28);
  auto pipeline =
      core::Pipeline::Train(config, TinyTrain(), train, nullptr,
                            data::EntityTypesFor(data::Genre::kNews));
  std::ostringstream saved;
  ASSERT_TRUE(pipeline->Save(saved));

  obs::EnableMetrics(true);
  obs::Metrics& m = obs::Metrics::Get();
  obs::Gauge* live = m.gauge("tensor.live_bytes");
  obs::Gauge* peak = m.gauge("tensor.peak_bytes");
  const double base = live->value();
  peak->Set(base);
  std::istringstream is(saved.str());
  auto loaded = core::Pipeline::Load(is);
  const double load_peak = peak->value() - base;
  obs::EnableMetrics(false);
  ASSERT_NE(loaded, nullptr);

  const double params = ParameterBytes(loaded->model()->Parameters());
  const double table = 8.0 * loaded->model()->word_vocab().size() * 64;
  ASSERT_GT(table, params / 2);
  // Every parameter buffer is allocated once and read into; nothing else
  // of note is live. Building a throwaway tensor per entry, as a reader
  // that swaps in fresh buffers does, adds a second word table.
  EXPECT_GE(load_peak, params);
  EXPECT_LE(load_peak, params + 4096);
}

TEST(PipelineCheckpointTest, LoadIsThreadCountInvariant) {
  // Load zero-fills the fresh model on every runtime thread before the
  // read; the restored bits and predictions must not depend on how many.
  // Three threads cut the storage at boundaries inside tensors.
  core::NerConfig config = TinyConfig();
  config.word_dim = 64;
  config.use_char_cnn = true;
  const text::Corpus train = TinyNews(30, 31);
  const text::Corpus held_out = TinyNews(12, 32);
  auto pipeline =
      core::Pipeline::Train(config, TinyTrain(), train, nullptr,
                            data::EntityTypesFor(data::Genre::kNews));
  std::ostringstream saved;
  ASSERT_TRUE(pipeline->Save(saved));
  const std::vector<Var> want = pipeline->model()->Parameters();
  const auto want_tags = pipeline->TagCorpus(held_out);

  for (const int threads : {1, 3, 0}) {  // 0: hardware threads
    runtime::Runtime::Get().SetThreads(threads);
    std::istringstream is(saved.str());
    auto loaded = core::Pipeline::Load(is);
    ASSERT_NE(loaded, nullptr) << threads;
    const std::vector<Var> got = loaded->model()->Parameters();
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k]->value.Fingerprint(), want[k]->value.Fingerprint())
          << threads << " " << want[k]->name;
    }
    EXPECT_EQ(loaded->TagCorpus(held_out), want_tags) << threads;
  }
  runtime::Runtime::Get().SetThreads(0);
}

TEST(PipelineCheckpointTest, LoadLeavesInitOnForLaterModels) {
  // Models built after a load, successful or not, still draw their
  // initial values: the load's no-init scope ends with it.
  const text::Corpus train = TinyNews(10, 29);
  const auto types = data::EntityTypesFor(data::Genre::kNews);
  core::NerModel before(TinyConfig(), train, types);

  const std::string bytes = CheckpointBytes();
  const std::string path = ::testing::TempDir() + "/dlner_guard.bin";
  WriteBytes(path, bytes);
  ASSERT_NE(core::Pipeline::Load(path), nullptr);
  WriteBytes(path, bytes.substr(0, bytes.size() / 2));
  ASSERT_EQ(core::Pipeline::Load(path), nullptr);

  core::NerModel after(TinyConfig(), train, types);
  const std::vector<Var> a = before.Parameters();
  const std::vector<Var> b = after.Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k]->value.Fingerprint(), b[k]->value.Fingerprint())
        << a[k]->name;
  }
  EXPECT_GT(a[0]->value.Norm(), 0.0) << a[0]->name;
}

TEST(PipelineCheckpointTest, EveryCellRestoresIntoUninitializedModel) {
  // Pipeline::Load builds the model without drawing initial values and
  // relies on the checkpoint to supply every one. For every encoder x
  // decoder cell (alternating char-CNN and char-BiLSTM features), a model
  // built that way and restored from an initialized twin must match it
  // parameter for parameter and prediction for prediction.
  const text::Corpus corpus = testsup::SmallCorpus("conll-like", 8, 30);
  const std::vector<std::string> types = corpus.EntityTypes();
  int cell_index = 0;
  for (const std::string& encoder : testsup::AllEncoders()) {
    for (const std::string& decoder : testsup::AllDecoders()) {
      const std::string cell = encoder + "/" + decoder;
      core::NerConfig config = testsup::TinyConfig(encoder, decoder, 9);
      config.use_shape = true;
      (++cell_index % 2 == 0 ? config.use_char_cnn : config.use_char_rnn) =
          true;
      core::NerModel source(config, corpus, types);
      std::stringstream ss;
      SaveParameters(ss, source.Parameters());

      std::unique_ptr<core::NerModel> restored;
      std::vector<std::span<Float>> unwritten;
      {
        SkipInitGuard skip_init;
        restored = std::make_unique<core::NerModel>(config, corpus, types);
        unwritten = skip_init.unwritten();
      }
      // Everything the guard left unwritten is a parameter's live buffer:
      // Pipeline::Load zero-fills only storage the read then restores.
      std::set<const Float*> buffers;
      for (const Var& p : restored->Parameters()) {
        buffers.insert(p->value.data());
      }
      for (const std::span<Float> r : unwritten) {
        EXPECT_EQ(buffers.count(r.data()), 1u) << cell;
      }
      ASSERT_TRUE(LoadParameters(ss, restored->Parameters())) << cell;
      const std::vector<Var> a = source.Parameters();
      const std::vector<Var> b = restored->Parameters();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k]->value.Fingerprint(), b[k]->value.Fingerprint())
            << cell << " " << a[k]->name;
      }
      EXPECT_EQ(restored->PredictCorpus(corpus), source.PredictCorpus(corpus))
          << cell;
    }
  }
}

}  // namespace
}  // namespace dlner
