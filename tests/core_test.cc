#include <cmath>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/flags.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "support/oracles.h"
#include "tools/tool_common.h"

namespace dlner::core {
namespace {

using data::Genre;

NerConfig SmallConfig() {
  NerConfig config;
  config.word_dim = 12;
  config.hidden_dim = 10;
  config.input_dropout = 0.1;
  config.seed = 5;
  return config;
}

TrainConfig FastTrain(int epochs) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = 0.02;
  return tc;
}

text::Corpus SmallNews(int n, uint64_t seed) {
  data::GenOptions opts;
  opts.num_sentences = n;
  opts.seed = seed;
  return data::GenerateCorpus(Genre::kNews, opts);
}

TEST(ConfigTest, DescribeNamesAllParts) {
  NerConfig c = SmallConfig();
  c.use_char_cnn = true;
  c.use_shape = true;
  c.encoder = "idcnn";
  c.decoder = "semicrf";
  const std::string desc = c.Describe();
  EXPECT_NE(desc.find("word"), std::string::npos);
  EXPECT_NE(desc.find("charCNN"), std::string::npos);
  EXPECT_NE(desc.find("shape"), std::string::npos);
  EXPECT_NE(desc.find("idcnn"), std::string::npos);
  EXPECT_NE(desc.find("semicrf"), std::string::npos);
}

TEST(ConfigTest, SerializationRoundTrip) {
  NerConfig c = SmallConfig();
  c.use_char_rnn = true;
  c.encoder = "transformer";
  c.idcnn_dilations = {1, 3, 9};
  c.scheme = "bio";
  c.seed = 123456789ULL;
  std::stringstream ss;
  WriteConfig(ss, c);
  NerConfig back;
  ASSERT_TRUE(ReadConfig(ss, &back));
  EXPECT_EQ(back.use_char_rnn, true);
  EXPECT_EQ(back.encoder, "transformer");
  EXPECT_EQ(back.idcnn_dilations, (std::vector<int>{1, 3, 9}));
  EXPECT_EQ(back.scheme, "bio");
  EXPECT_EQ(back.seed, 123456789ULL);
}

TEST(ConfigTest, MalformedStreamFails) {
  std::stringstream ss;
  ss << "junk";
  NerConfig c;
  EXPECT_FALSE(ReadConfig(ss, &c));
}

// Every (encoder, decoder) cell of the taxonomy must assemble, produce a
// finite loss, and predict valid flat spans.
class TaxonomyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(TaxonomyTest, BuildsAndRuns) {
  NerConfig config = SmallConfig();
  config.encoder = std::get<0>(GetParam());
  config.decoder = std::get<1>(GetParam());
  text::Corpus corpus = SmallNews(20, 2);
  NerModel model(config, corpus, data::EntityTypesFor(Genre::kNews));
  EXPECT_GT(model.ParameterCount(), 0);

  const text::Sentence& s = corpus.sentences[0];
  Var loss = model.Loss(s, /*training=*/true);
  EXPECT_TRUE(std::isfinite(loss->value[0]));
  EXPECT_GT(loss->value[0], 0.0);

  std::vector<text::Span> spans = testsup::EagerPredict(model, s.tokens);
  EXPECT_TRUE(text::SpansAreValid(spans, s.size()));
  EXPECT_TRUE(text::SpansAreFlat(spans));
}

INSTANTIATE_TEST_SUITE_P(
    Cells, TaxonomyTest,
    ::testing::Combine(::testing::Values("mlp", "cnn", "idcnn", "bilstm",
                                         "bigru", "transformer", "brnn"),
                       ::testing::Values("softmax", "crf", "semicrf", "rnn",
                                         "pointer", "fofe")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// The recursive encoder brackets the tokens it is given, so reaching it
// through the ContextEncoder interface yields the tree NerModel trains and
// tags with. On this sentence the punctuation bracketing differs from a
// balanced tree over 13 tokens.
TEST(NerModelTest, BrnnThroughTheEncoderInterfaceMatchesEncodeTokens) {
  NerConfig config = SmallConfig();
  config.encoder = "brnn";
  config.decoder = "crf";
  NerModel model(config, SmallNews(10, 13),
                 data::EntityTypesFor(Genre::kNews));
  const std::vector<std::string> tokens = {
      "Maria", "Lopez", ",",     "a",  "director", "at", "Acme",
      "Corp",  ",",     "spoke", "in", "Lyon",     "."};
  const encoders::ContextEncoder& encoder = *model.encoder();
  const Var rep = model.Represent(tokens, /*training=*/false);
  const Tensor via_interface =
      encoder.Encode(rep, tokens, /*training=*/false)->value;
  const Tensor via_model =
      model.EncodeTokens(rep, tokens, /*training=*/false)->value;
  ASSERT_EQ(via_interface.rows(), via_model.rows());
  ASSERT_EQ(via_interface.cols(), via_model.cols());
  for (int i = 0; i < via_model.size(); ++i) {
    EXPECT_EQ(via_interface[i], via_model[i]) << "element " << i;
  }
}

TEST(NerModelTest, AllInputFeaturesCompose) {
  NerConfig config = SmallConfig();
  config.use_char_cnn = true;
  config.use_char_rnn = true;
  config.use_shape = true;
  config.use_gazetteer = true;
  text::Corpus corpus = SmallNews(20, 3);
  data::Gazetteer gaz = data::Gazetteer::FromCorpus(corpus, 1.0, 1);
  Resources res;
  res.gazetteer = &gaz;
  NerModel model(config, corpus, data::EntityTypesFor(Genre::kNews), res);
  Var loss = model.Loss(corpus.sentences[0]);
  EXPECT_TRUE(std::isfinite(loss->value[0]));
}

TEST(NerModelDeathTest, MissingResourceAborts) {
  NerConfig config = SmallConfig();
  config.use_gazetteer = true;
  text::Corpus corpus = SmallNews(5, 4);
  EXPECT_DEATH(NerModel(config, corpus, data::EntityTypesFor(Genre::kNews)),
               "gazetteer");
}

TEST(TrainerTest, LossDecreasesAndF1Improves) {
  text::Corpus corpus = SmallNews(80, 5);
  data::DataSplit split = data::SplitCorpus(corpus, 0.7, 0.0, 1);
  NerConfig config = SmallConfig();
  NerModel model(config, split.train, data::EntityTypesFor(Genre::kNews));

  const double f1_before = model.Evaluate(split.test).micro.f1();
  Trainer trainer(&model, FastTrain(6));
  TrainResult result = trainer.Train(split.train, nullptr);
  ASSERT_EQ(result.history.size(), 6u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
  const double f1_after = model.Evaluate(split.test).micro.f1();
  EXPECT_GT(f1_after, f1_before);
  EXPECT_GT(f1_after, 0.5);
}

TEST(TrainerTest, EarlyStoppingHonorsPatience) {
  text::Corpus corpus = SmallNews(30, 6);
  NerConfig config = SmallConfig();
  NerModel model(config, corpus, data::EntityTypesFor(Genre::kNews));
  TrainConfig tc = FastTrain(50);
  tc.patience = 2;
  Trainer trainer(&model, tc);
  TrainResult result = trainer.Train(corpus, &corpus);
  // With patience 2 on a tiny corpus the run must stop well before 50.
  EXPECT_LT(result.history.size(), 50u);
  EXPECT_GE(result.best_dev_f1, 0.0);
  EXPECT_GE(result.best_epoch, 0);
}

TEST(TrainerTest, TrainRestoresBestEpochParameters) {
  text::Corpus corpus = SmallNews(30, 11);
  NerConfig config = SmallConfig();
  NerModel model(config, corpus, data::EntityTypesFor(Genre::kNews));
  TrainConfig tc = FastTrain(40);
  tc.lr = 0.05;  // deliberately jumpy so late epochs regress
  tc.patience = 1;
  Trainer trainer(&model, tc);
  TrainResult result = trainer.Train(corpus, &corpus);
  ASSERT_GE(result.best_epoch, 0);
  // The returned model must carry best-epoch weights: re-evaluating the dev
  // corpus reproduces best_dev_f1 exactly, even though the run continued
  // past the best epoch before the patience break.
  EXPECT_GT(result.history.size(), static_cast<size_t>(result.best_epoch) + 1);
  EXPECT_LE(result.history.back().dev_f1, result.best_dev_f1);
  EXPECT_DOUBLE_EQ(model.Evaluate(corpus).micro.f1(), result.best_dev_f1);
}

TEST(TrainerTest, IncrementalTrainEpochs) {
  text::Corpus corpus = SmallNews(20, 7);
  NerConfig config = SmallConfig();
  NerModel model(config, corpus, data::EntityTypesFor(Genre::kNews));
  // Each Train call continues from the weights the previous one left.
  Trainer trainer(&model, FastTrain(1));
  const double l1 = trainer.Train(corpus, nullptr).final_train_loss;
  for (int e = 0; e < 2; ++e) trainer.Train(corpus, nullptr);
  const double l2 = trainer.Train(corpus, nullptr).final_train_loss;
  EXPECT_LT(l2, l1);
}

TEST(PipelineTest, TrainTagAndEvaluate) {
  text::Corpus corpus = SmallNews(60, 8);
  data::DataSplit split = data::SplitCorpus(corpus, 0.8, 0.0, 2);
  auto pipeline =
      Pipeline::Train(SmallConfig(), FastTrain(5), split.train, nullptr,
                      data::EntityTypesFor(Genre::kNews));
  ASSERT_NE(pipeline, nullptr);
  EXPECT_GT(pipeline->Evaluate(split.test).micro.f1(), 0.4);
  text::Sentence tagged = pipeline->TagText("Maria Garcia visited Boston .");
  EXPECT_EQ(tagged.size(), 5);
}

TEST(PipelineTest, SaveLoadPreservesPredictions) {
  text::Corpus corpus = SmallNews(40, 9);
  auto pipeline = Pipeline::Train(SmallConfig(), FastTrain(3), corpus,
                                  nullptr,
                                  data::EntityTypesFor(Genre::kNews));
  const std::string path = ::testing::TempDir() + "/dlner_pipeline.bin";
  ASSERT_TRUE(pipeline->Save(path));
  auto loaded = Pipeline::Load(path);
  ASSERT_NE(loaded, nullptr);
  for (int i = 0; i < 10; ++i) {
    const auto& tokens = corpus.sentences[i].tokens;
    EXPECT_EQ(pipeline->Tag(tokens), loaded->Tag(tokens)) << "sentence " << i;
  }
}

// Tag and TagText are one-sentence TagCorpus calls: the same compiled plan,
// the same spans, and an empty sentence is no spans rather than a crash.
TEST(PipelineTest, TagMatchesTagCorpusAndAcceptsEmpty) {
  text::Corpus corpus = SmallNews(30, 12);
  auto pipeline = Pipeline::Train(SmallConfig(), FastTrain(2), corpus,
                                  nullptr,
                                  data::EntityTypesFor(Genre::kNews));
  const std::vector<std::vector<text::Span>> expected =
      pipeline->TagCorpus(corpus);
  for (int i = 0; i < corpus.size(); ++i) {
    const auto& tokens = corpus.sentences[i].tokens;
    EXPECT_EQ(pipeline->Tag(tokens), expected[i]) << "sentence " << i;
    std::string raw;
    for (const std::string& tok : tokens) raw += tok + " ";
    const text::Sentence tagged = pipeline->TagText(raw);
    EXPECT_EQ(tagged.tokens, tokens) << "sentence " << i;
    EXPECT_EQ(tagged.spans, expected[i]) << "sentence " << i;
  }
  EXPECT_TRUE(pipeline->Tag({}).empty());
  const text::Sentence blank = pipeline->TagText("  \t ");
  EXPECT_TRUE(blank.tokens.empty());
  EXPECT_TRUE(blank.spans.empty());
}

TEST(PipelineTest, SaveLoadWithExternalResources) {
  // Checkpoint format v2: resource-backed models serialize their resources
  // into the checkpoint (full round-trips in serialize_test.cc).
  text::Corpus corpus = SmallNews(15, 10);
  data::Gazetteer gaz = data::Gazetteer::FromCorpus(corpus, 1.0, 1);
  Resources res;
  res.gazetteer = &gaz;
  NerConfig config = SmallConfig();
  config.use_gazetteer = true;
  auto pipeline = Pipeline::Train(config, FastTrain(1), corpus, nullptr,
                                  data::EntityTypesFor(Genre::kNews), res);
  const std::string path = ::testing::TempDir() + "/dlner_gaz_pipeline.bin";
  ASSERT_TRUE(pipeline->Save(path));
  auto loaded = Pipeline::Load(path);
  ASSERT_NE(loaded, nullptr);
  ASSERT_NE(loaded->resources().gazetteer, nullptr);
  EXPECT_EQ(loaded->resources().gazetteer->size(), gaz.size());
  for (int i = 0; i < 5; ++i) {
    const auto& tokens = corpus.sentences[i].tokens;
    EXPECT_EQ(pipeline->Tag(tokens), loaded->Tag(tokens)) << "sentence " << i;
  }
}

TEST(PipelineTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage.bin";
  {
    std::ofstream os(path);
    os << "not a pipeline";
  }
  EXPECT_EQ(Pipeline::Load(path), nullptr);
  EXPECT_EQ(Pipeline::Load("/nonexistent/file.bin"), nullptr);
}

// ---------------------------------------------------------------------------
// Checked flag parsing (core/flags.h). The old tool parser turned garbage
// into 0 via atoi/atof, truncated uint64 seeds through int, and silently
// accepted unknown flags; these tests pin the strict behavior.

TEST(FlagsTest, ParseIntAcceptsOnlyWholeIntegers) {
  int v = -1;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  for (const char* bad : {"", "abc", "12x", "x12", "1.5", "1 ", " 1",
                          "2147483648", "-2147483649", "0x10"}) {
    v = 1234;
    EXPECT_FALSE(ParseInt(bad, &v)) << bad;
    EXPECT_EQ(v, 1234) << bad << " modified *out";
  }
}

TEST(FlagsTest, ParseUInt64HoldsFullRangeAndRejectsSigns) {
  std::uint64_t v = 0;
  // The original --seed path went through int and truncated this.
  EXPECT_TRUE(ParseUInt64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  EXPECT_TRUE(ParseUInt64("9223372036854775808", &v));  // > INT64_MAX
  EXPECT_EQ(v, 9223372036854775808ULL);
  for (const char* bad :
       {"", "-1", "+1", "18446744073709551616", "seed", "1e3"}) {
    EXPECT_FALSE(ParseUInt64(bad, &v)) << bad;
  }
}

TEST(FlagsTest, ParseDoubleRejectsGarbageOverflowAndNan) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("0.015", &v));
  EXPECT_DOUBLE_EQ(v, 0.015);
  EXPECT_TRUE(ParseDouble("-2e-3", &v));
  EXPECT_DOUBLE_EQ(v, -2e-3);
  for (const char* bad : {"", "abc", "0.5x", "1e999", "nan", "0,5"}) {
    EXPECT_FALSE(ParseDouble(bad, &v)) << bad;
  }
}

TEST(FlagsTest, ParseRejectsUnknownFlagsAndMissingValues) {
  const FlagSpec spec{{"threads", FlagKind::kValue},
                      {"verbose", FlagKind::kBool},
                      {"gazetteer", FlagKind::kOptionalValue}};
  {
    // The typo the old parser silently ignored.
    const char* argv[] = {"dlner", "--thread", "4"};
    Args args;
    EXPECT_FALSE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_NE(args.error().find("--thread"), std::string::npos);
  }
  {
    // The old parser stored the sentinel "true" here and atoi'd it to 0.
    const char* argv[] = {"dlner", "--threads", "--verbose"};
    Args args;
    EXPECT_FALSE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_NE(args.error().find("requires a value"), std::string::npos);
  }
  {
    const char* argv[] = {"dlner", "stray", "--verbose"};
    Args args;
    EXPECT_FALSE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_NE(args.error().find("stray"), std::string::npos);
  }
}

TEST(FlagsTest, ParseHandlesKindsAndTypedGetters) {
  const FlagSpec spec{{"threads", FlagKind::kValue},
                      {"seed", FlagKind::kValue},
                      {"lr", FlagKind::kValue},
                      {"verbose", FlagKind::kBool},
                      {"gazetteer", FlagKind::kOptionalValue}};
  const char* argv[] = {"dlner",      "--threads", "4",    "--verbose",
                        "--gazetteer", "--seed",   "9223372036854775809",
                        "--lr",       "0.02"};
  Args args;
  ASSERT_TRUE(args.Parse(9, const_cast<char* const*>(argv), 1, spec))
      << args.error();
  EXPECT_EQ(args.GetInt("threads", -1), 4);
  EXPECT_TRUE(args.Has("verbose"));
  // Bare optional flag stores the sentinel, not the following flag's name.
  EXPECT_EQ(args.Get("gazetteer"), "true");
  // Seeds above INT_MAX survive intact (the old GetInt path truncated).
  EXPECT_EQ(args.GetUInt64("seed", 0), 9223372036854775809ULL);
  EXPECT_DOUBLE_EQ(args.GetDouble("lr", 0.0), 0.02);
  // Absent flags fall back to defaults.
  EXPECT_EQ(args.GetInt("missing", 7), 7);
  EXPECT_EQ(args.GetUInt64("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 0.5), 0.5);
}

TEST(FlagsTest, OptionalValueConsumesNonFlagToken) {
  const FlagSpec spec{{"gazetteer", FlagKind::kOptionalValue}};
  const char* argv[] = {"dlner", "--gazetteer", "0.7"};
  Args args;
  ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
  EXPECT_DOUBLE_EQ(args.GetDouble("gazetteer", 1.0), 0.7);
}

TEST(FlagsTest, RepeatedFlagKeepsLastValue) {
  const FlagSpec spec{{"epochs", FlagKind::kValue}};
  const char* argv[] = {"dlner", "--epochs", "3", "--epochs", "9"};
  Args args;
  ASSERT_TRUE(args.Parse(5, const_cast<char* const*>(argv), 1, spec));
  EXPECT_EQ(args.GetInt("epochs", 0), 9);
}

// GetInt on a malformed stored value exits 1 with the flag named — the
// "garbage becomes 0" bug this subsystem replaces.
TEST(FlagsDeathTest, TypedGetterExitsOnMalformedValue) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const FlagSpec spec{{"epochs", FlagKind::kValue}};
  const char* argv[] = {"dlner", "--epochs", "12x"};
  Args args;
  ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
  EXPECT_EXIT(args.GetInt("epochs", 0), ::testing::ExitedWithCode(1),
              "--epochs");
}

TEST(FlagsDeathTest, TypedGetterNamesTheCallingProgram) {
  // The message leads with argv[0]'s last path component, so a bench's bad
  // value reads like its Parse errors ("bench_scenarios: ...").
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const FlagSpec spec{{"epochs", FlagKind::kValue}};
  const char* argv[] = {"build/bench/bench_scenarios", "--epochs", "3x"};
  Args args;
  ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
  EXPECT_EXIT(args.GetInt("epochs", 0), ::testing::ExitedWithCode(1),
              "^bench_scenarios: --epochs: invalid integer \"3x\"");
}

// The tools' --threads flag rejects what SetThreads cannot honor before
// touching the runtime: SetThreads(n) builds n-1 OS threads, so an
// oversized count must never reach it. No pool is built here.
TEST(ToolFlagsTest, ThreadsOutsideRangeIsRejectedBeforeTheRuntime) {
  runtime::Runtime& rt = runtime::Runtime::Get();
  const int before = rt.threads();
  const FlagSpec spec{{"threads", FlagKind::kValue}};
  for (const char* value : {"-1", "-4", "1025", "100000"}) {
    const char* argv[] = {"dlner", "--threads", value};
    Args args;
    ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_FALSE(tools::ApplyThreadsFlag(args)) << value;
    EXPECT_EQ(rt.threads(), before) << value;
  }
  rt.SetThreads(before);  // in case a rejected value slipped through
}

TEST(ToolFlagsTest, UnknownLogLevelIsRejected) {
  FlagSpec spec;
  tools::AddObsFlags(&spec);
  obs::SetLogLevel(obs::LogLevel::kWarn);
  {
    const char* argv[] = {"dlner", "--log-level", "bogus"};
    Args args;
    ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_FALSE(tools::ApplyObsFlags(args));
    EXPECT_EQ(obs::GetLogLevel(), obs::LogLevel::kWarn);
  }
  {
    const char* argv[] = {"dlner", "--log-level", "error"};
    Args args;
    ASSERT_TRUE(args.Parse(3, const_cast<char* const*>(argv), 1, spec));
    EXPECT_TRUE(tools::ApplyObsFlags(args));
    EXPECT_EQ(obs::GetLogLevel(), obs::LogLevel::kError);
  }
  obs::SetLogLevel(obs::LogLevel::kWarn);
}

}  // namespace
}  // namespace dlner::core
