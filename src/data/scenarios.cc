#include "data/scenarios.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "data/banks.h"
#include "data/synthetic.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace dlner::data {
namespace {

using text::Corpus;
using text::Sentence;
using text::Span;

// Seed-space separation: each scenario/channel mixes a distinct constant
// into the user seed so "same seed, different scenario" never aliases.
constexpr uint64_t kCodeSwitchSalt = 0x636f6465ULL;
constexpr uint64_t kOcrSalt = 0x6f637221ULL;
constexpr uint64_t kAsrSalt = 0x61737221ULL;
constexpr uint64_t kLongDocSalt = 0x6c6f6e67ULL;
constexpr uint64_t kDiscontSalt = 0x64697363ULL;
constexpr uint64_t kConsistSalt = 0x636f6e73ULL;
constexpr uint64_t kTrainSalt = 0x7472696eULL;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

const std::string& Pick(Rng* rng, const std::vector<std::string>& v) {
  DLNER_CHECK(!v.empty());
  return v[rng->UniformInt(0, static_cast<int>(v.size()) - 1)];
}

// Accented second-language function words for the code-switched scenario.
// Deliberately multi-byte UTF-8 throughout: these tokens double as the
// hostile input that exercises the streaming tokenizer's byte-buffering.
const std::vector<std::string>& SecondLanguageWords() {
  static const std::vector<std::string>* v = new std::vector<std::string>{
      "señor",   "mañana",  "también", "después", "según",   "año",
      "niño",    "música",  "corazón", "día",     "está",    "aquí",
      "über",    "schön",   "größer",  "früh",    "straße",  "zurück",
      "café",    "déjà",    "garçon",  "fenêtre", "château", "très",
      "être",    "où",      "así",     "jamás",   "perché",  "città",
      "più",     "così"};
  return *v;
}

bool IsPunctToken(const std::string& tok) {
  for (char c : tok) {
    if (std::isalnum(static_cast<unsigned char>(c))) return false;
    if (static_cast<unsigned char>(c) >= 0x80) return false;
  }
  return !tok.empty();
}

Corpus CleanNews(uint64_t seed, int num_sentences) {
  GenOptions opts;
  opts.seed = seed;
  opts.num_sentences = num_sentences;
  return GenerateCorpus(Genre::kNews, opts);
}

// --- kCodeSwitched -------------------------------------------------------

Corpus GenerateCodeSwitched(const ScenarioOptions& opts) {
  Corpus corpus = CleanNews(Mix(opts.seed, kCodeSwitchSalt), opts.num_sentences);
  Rng rng(Mix(opts.seed, kCodeSwitchSalt) + 1);
  for (Sentence& s : corpus.sentences) {
    std::vector<bool> in_entity(static_cast<size_t>(s.size()), false);
    for (const Span& sp : s.spans) {
      for (int t = sp.start; t < sp.end; ++t) {
        in_entity[static_cast<size_t>(t)] = true;
      }
    }
    for (int t = 0; t < s.size(); ++t) {
      // Entities keep their surface (code-switching swaps the matrix
      // language, not the names); the terminal "." keeps the streaming
      // sentence segmentation aligned.
      if (in_entity[static_cast<size_t>(t)]) continue;
      if (IsPunctToken(s.tokens[t])) continue;
      if (rng.Bernoulli(opts.code_switch_rate)) {
        s.tokens[t] = Pick(&rng, SecondLanguageWords());
      }
    }
  }
  return corpus;
}

// --- kLongDoc ------------------------------------------------------------

Corpus GenerateLongDoc(const ScenarioOptions& opts) {
  // One document: clean news sentences with a small recurring entity cast,
  // looped until the token budget. Recurrence is what makes document-level
  // state meaningful at this scale.
  const uint64_t seed = Mix(opts.seed, kLongDocSalt);
  Rng rng(seed);
  // A recurring cast: the same few PER/LOC/ORG surfaces reappear throughout.
  std::vector<std::string> cast_first, cast_last, cast_city;
  for (int i = 0; i < 6; ++i) {
    cast_first.push_back(Pick(&rng, banks::FirstNames().train));
    cast_last.push_back(Pick(&rng, banks::LastNames().train));
    cast_city.push_back(Pick(&rng, banks::Cities().train));
  }
  Corpus corpus;
  corpus.doc_starts = {0};
  int tokens = 0;
  uint64_t chunk_seed = seed + 17;
  while (tokens < opts.min_doc_tokens) {
    Corpus chunk = CleanNews(chunk_seed++, 20);
    for (Sentence& s : chunk.sentences) {
      // Rewrite a third of PER spans to the recurring cast.
      for (Span& sp : s.spans) {
        if (sp.type == "PER" && sp.end - sp.start == 2 && rng.Bernoulli(0.33)) {
          const int who = rng.UniformInt(0, 5);
          s.tokens[sp.start] = cast_first[static_cast<size_t>(who)];
          s.tokens[sp.start + 1] = cast_last[static_cast<size_t>(who)];
        } else if (sp.type == "LOC" && sp.end - sp.start == 1 &&
                   rng.Bernoulli(0.33)) {
          s.tokens[sp.start] = cast_city[static_cast<size_t>(
              rng.UniformInt(0, 5))];
        }
      }
      tokens += s.size();
      corpus.sentences.push_back(std::move(s));
      if (tokens >= opts.min_doc_tokens) break;
    }
  }
  return corpus;
}

// --- kDiscontinuous ------------------------------------------------------

// Coordinated mentions sharing a head token, extending the nested-genre
// overlapping-span representation: a discontinuous mention is stored as its
// component spans (same type), e.g. "the Dortmund and Leipzig committees"
// yields ORG components {Dortmund} + {committees} for the first conjunct
// and the contiguous ORG {Leipzig committees} for the second.
Corpus GenerateDiscontinuous(const ScenarioOptions& opts) {
  const uint64_t seed = Mix(opts.seed, kDiscontSalt);
  Rng rng(seed);
  Corpus corpus;
  corpus.sentences.reserve(static_cast<size_t>(opts.num_sentences));
  for (int i = 0; i < opts.num_sentences; ++i) {
    Sentence s;
    const int kind = rng.UniformInt(0, 2);
    if (kind == 0) {
      // "The <cityA> and <cityB> <team> <v> the <n> ."
      const std::string& a = Pick(&rng, banks::Cities().train);
      const std::string& b = Pick(&rng, banks::Cities().train);
      const std::string& head = Pick(&rng, banks::TeamNames());
      s.tokens = {"The", a, "and", b, head,
                  Pick(&rng, banks::Verbs()), "the", Pick(&rng, banks::Nouns()),
                  "."};
      s.spans.push_back({1, 2, "ORG"});  // discontinuous component: cityA
      s.spans.push_back({4, 5, "ORG"});  // shared head
      s.spans.push_back({3, 5, "ORG"});  // contiguous: cityB + head
    } else if (kind == 1) {
      // "Patients with <modA> and <modB> <name> <disease-head> <v> ."
      const std::string& ma = Pick(&rng, banks::DiseaseModifiers());
      const std::string& mb = Pick(&rng, banks::DiseaseModifiers());
      const std::string& nm = Pick(&rng, banks::LastNames().train);
      const std::string& hd = Pick(&rng, banks::DiseaseHeads());
      s.tokens = {"Patients", "with", ma, "and", mb, nm, hd,
                  Pick(&rng, banks::Verbs()), Pick(&rng, banks::Adverbs()),
                  "."};
      s.spans.push_back({2, 3, "Disease"});  // component: modA
      s.spans.push_back({5, 7, "Disease"});  // shared "<name> <head>"
      s.spans.push_back({4, 7, "Disease"});  // contiguous: modB name head
    } else {
      // Flat control sentence, keeping the discontinuous fraction realistic.
      const std::string& city = Pick(&rng, banks::Cities().train);
      s.tokens = {Pick(&rng, banks::FirstNames().train),
                  Pick(&rng, banks::LastNames().train),
                  Pick(&rng, banks::Verbs()), "the",
                  Pick(&rng, banks::Nouns()), "in", city, "."};
      s.spans.push_back({0, 2, "PER"});
      s.spans.push_back({6, 7, "LOC"});
    }
    corpus.sentences.push_back(std::move(s));
  }
  return corpus;
}

// --- kEntityConsistency --------------------------------------------------

// Documents whose FIRST mention of a person sits in a cue-rich frame
// ("President X Y visited ...") while later mentions are cue-poor and often
// OOV — exactly the case where sentence-at-a-time tagging misses what
// document state recovers. Sentence surfaces follow the streaming
// conventions (terminal ".", no internal sentence enders) so RenderDocument
// round-trips through StreamTagger on the identical sentence split.
constexpr const char* kCueTitles[] = {"President", "Senator", "Chancellor",
                                      "Governor", "Minister"};

// Single-token PER mentions on purpose: the consistency mechanism matches
// exact surfaces, and single-token mentions can only be hit or missed —
// never half-tagged — which keeps the doc-context comparison crisp.
Sentence CueRichSentence(Rng* rng, const std::string& name) {
  Sentence s;
  const char* title = kCueTitles[rng->UniformInt(0, 4)];
  const std::string& city = Pick(rng, banks::Cities().train);
  s.tokens = {title, name, "visited", city, "on",
              Pick(rng, banks::Weekdays()), "."};
  s.spans.push_back({1, 2, "PER"});
  s.spans.push_back({3, 4, "LOC"});
  return s;
}

Sentence CuePoorSentence(Rng* rng, const std::string& name) {
  Sentence s;
  // No title, no "visited" frame: just the bare name in a nondescript
  // carrier sentence.
  s.tokens = {name, Pick(rng, banks::Verbs()), "the",
              Pick(rng, banks::Nouns()), Pick(rng, banks::Adverbs()), "."};
  s.spans.push_back({0, 1, "PER"});
  return s;
}

// Distractor with no person at all, so documents are not wall-to-wall PER.
Sentence FillerSentence(Rng* rng) {
  Sentence s;
  const std::string& city = Pick(rng, banks::Cities().train);
  s.tokens = {"The", Pick(rng, banks::Nouns()), "in", city,
              Pick(rng, banks::Verbs()), Pick(rng, banks::Adverbs()), "."};
  s.spans.push_back({3, 4, "LOC"});
  return s;
}

Corpus GenerateConsistency(const ScenarioOptions& opts) {
  Rng rng(Mix(opts.seed, kConsistSalt));
  Corpus corpus;
  const int per_doc = std::max(opts.sentences_per_doc, 2);
  const int num_docs = std::max(opts.num_sentences / per_doc, 1);
  for (int d = 0; d < num_docs; ++d) {
    corpus.doc_starts.push_back(corpus.size());
    const bool oov = rng.Bernoulli(opts.oov_entity_fraction);
    const std::string& name = oov ? Pick(&rng, banks::LastNames().heldout)
                                  : Pick(&rng, banks::LastNames().train);
    corpus.sentences.push_back(CueRichSentence(&rng, name));
    for (int i = 1; i < per_doc; ++i) {
      if (rng.Bernoulli(0.3)) {
        corpus.sentences.push_back(FillerSentence(&rng));
      } else {
        corpus.sentences.push_back(CuePoorSentence(&rng, name));
      }
    }
  }
  return corpus;
}

// Training side of the consistency split: cue-rich frames plus fillers
// only, all in-vocabulary. The cue-poor bare-name frame never appears, so
// a sentence-level model can only learn "title → PER".
Corpus GenerateConsistencyTrain(const ScenarioOptions& opts) {
  Rng rng(Mix(opts.seed, kConsistSalt ^ kTrainSalt));
  Corpus corpus;
  for (int i = 0; i < opts.num_sentences; ++i) {
    if (rng.Bernoulli(0.35)) {
      corpus.sentences.push_back(FillerSentence(&rng));
    } else {
      corpus.sentences.push_back(
          CueRichSentence(&rng, Pick(&rng, banks::LastNames().train)));
    }
  }
  return corpus;
}

}  // namespace

// --- Noise channels ------------------------------------------------------

void ApplyOcrChannel(text::Corpus* corpus, double rate, uint64_t seed,
                     NoiseChannelStats* stats) {
  Rng rng(Mix(seed, kOcrSalt));
  NoiseChannelStats local;
  // Classic OCR confusion pairs (shape-based).
  auto confuse = [](char c) -> char {
    switch (c) {
      case 'O': return '0';
      case '0': return 'O';
      case 'l': return '1';
      case '1': return 'l';
      case 'I': return 'l';
      case 'S': return '5';
      case '5': return 'S';
      case 'B': return '8';
      case '8': return 'B';
      case 'Z': return '2';
      case 'e': return 'c';
      case 'c': return 'e';
      case 'n': return 'u';
      case 'u': return 'n';
      case 'm': return 'n';
      case 'h': return 'b';
      case 'g': return 'q';
      case 'a': return 'o';
      case 'o': return 'a';
      default: return c;
    }
  };
  for (Sentence& s : corpus->sentences) {
    for (std::string& tok : s.tokens) {
      std::string out;
      out.reserve(tok.size());
      for (char c : tok) {
        const bool eligible =
            std::isalnum(static_cast<unsigned char>(c)) &&
            static_cast<unsigned char>(c) < 0x80;
        if (!eligible) {
          out.push_back(c);
          continue;
        }
        ++local.chars_eligible;
        if (!rng.Bernoulli(rate)) {
          out.push_back(c);
          continue;
        }
        ++local.chars_corrupted;
        const int op = rng.UniformInt(0, 2);
        if (op == 0) {
          out.push_back(confuse(c));
        } else if (op == 1) {
          // Deletion — skipped entirely (token emptiness handled below).
        } else {
          out.push_back(c);
          out.push_back(c);
        }
      }
      // Never let deletion produce an empty token: that would merge with a
      // neighbor on re-rendering and move span boundaries.
      if (!out.empty()) tok = std::move(out);
    }
  }
  if (stats != nullptr) *stats = local;
}

void ApplyAsrChannel(text::Corpus* corpus, double rate, uint64_t seed,
                     NoiseChannelStats* stats) {
  Rng rng(Mix(seed, kAsrSalt));
  NoiseChannelStats local;
  auto phonetic = [](char c) -> char {
    switch (c) {
      case 'c': return 'k';
      case 'k': return 'c';
      case 's': return 'z';
      case 'z': return 's';
      case 'f': return 'v';
      case 'v': return 'f';
      case 'b': return 'p';
      case 'p': return 'b';
      case 'd': return 't';
      case 't': return 'd';
      case 'i': return 'e';
      case 'e': return 'i';
      default: return c;
    }
  };
  for (Sentence& s : corpus->sentences) {
    // Pass 1: lowercase + phonetic confusions (ASCII letters only; UTF-8
    // continuation bytes are >= 0x80 and untouched).
    for (std::string& tok : s.tokens) {
      for (char& c : tok) {
        if (static_cast<unsigned char>(c) >= 0x80) continue;
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (std::isalpha(static_cast<unsigned char>(c))) {
          ++local.chars_eligible;
          if (rng.Bernoulli(rate)) {
            const char replaced = phonetic(c);
            if (replaced != c) {
              c = replaced;
              ++local.chars_corrupted;
            }
          }
        }
      }
    }
    // Pass 2: ASR transcripts carry no punctuation. Drop punctuation-only
    // tokens outside entity spans and remap span indexes.
    std::vector<bool> in_entity(static_cast<size_t>(s.size()), false);
    for (const Span& sp : s.spans) {
      for (int t = sp.start; t < sp.end; ++t) {
        in_entity[static_cast<size_t>(t)] = true;
      }
    }
    std::vector<int> new_index(static_cast<size_t>(s.size()) + 1, 0);
    std::vector<std::string> kept;
    kept.reserve(s.tokens.size());
    for (int t = 0; t < s.size(); ++t) {
      new_index[static_cast<size_t>(t)] = static_cast<int>(kept.size());
      const bool drop =
          IsPunctToken(s.tokens[t]) && !in_entity[static_cast<size_t>(t)];
      if (!drop) kept.push_back(std::move(s.tokens[t]));
    }
    new_index[static_cast<size_t>(s.size())] = static_cast<int>(kept.size());
    for (Span& sp : s.spans) {
      sp.start = new_index[static_cast<size_t>(sp.start)];
      sp.end = new_index[static_cast<size_t>(sp.end)];
    }
    s.tokens = std::move(kept);
  }
  if (stats != nullptr) *stats = local;
}

// --- Dispatch ------------------------------------------------------------

std::string ScenarioToString(Scenario scenario) {
  switch (scenario) {
    case Scenario::kCodeSwitched: return "code_switched";
    case Scenario::kOcrNoise: return "ocr_noise";
    case Scenario::kAsrNoise: return "asr_noise";
    case Scenario::kLongDoc: return "long_doc";
    case Scenario::kDiscontinuous: return "discontinuous";
    case Scenario::kEntityConsistency: return "entity_consistency";
  }
  DLNER_CHECK(false);
}

const std::vector<Scenario>& AllScenarios() {
  static const std::vector<Scenario>* v = new std::vector<Scenario>{
      Scenario::kCodeSwitched,  Scenario::kOcrNoise,
      Scenario::kAsrNoise,      Scenario::kLongDoc,
      Scenario::kDiscontinuous, Scenario::kEntityConsistency};
  return *v;
}

const std::vector<std::string>& ScenarioEntityTypes(Scenario scenario) {
  static const std::vector<std::string>* news =
      new std::vector<std::string>{"PER", "LOC", "ORG", "MISC"};
  static const std::vector<std::string>* discont =
      new std::vector<std::string>{"PER", "LOC", "ORG", "Disease"};
  static const std::vector<std::string>* consist =
      new std::vector<std::string>{"PER", "LOC"};
  switch (scenario) {
    case Scenario::kCodeSwitched:
    case Scenario::kOcrNoise:
    case Scenario::kAsrNoise:
    case Scenario::kLongDoc:
      return *news;
    case Scenario::kDiscontinuous:
      return *discont;
    case Scenario::kEntityConsistency:
      return *consist;
  }
  DLNER_CHECK(false);
}

text::Corpus GenerateScenario(Scenario scenario, const ScenarioOptions& opts) {
  switch (scenario) {
    case Scenario::kCodeSwitched:
      return GenerateCodeSwitched(opts);
    case Scenario::kOcrNoise: {
      Corpus corpus = CleanNews(Mix(opts.seed, kOcrSalt), opts.num_sentences);
      ApplyOcrChannel(&corpus, opts.corruption_rate, opts.seed, nullptr);
      return corpus;
    }
    case Scenario::kAsrNoise: {
      Corpus corpus = CleanNews(Mix(opts.seed, kAsrSalt), opts.num_sentences);
      ApplyAsrChannel(&corpus, opts.corruption_rate, opts.seed, nullptr);
      return corpus;
    }
    case Scenario::kLongDoc:
      return GenerateLongDoc(opts);
    case Scenario::kDiscontinuous:
      return GenerateDiscontinuous(opts);
    case Scenario::kEntityConsistency:
      return GenerateConsistency(opts);
  }
  DLNER_CHECK(false);
}

ScenarioSplit MakeScenarioSplit(Scenario scenario,
                                const ScenarioOptions& opts) {
  ScenarioSplit split;
  split.test = GenerateScenario(scenario, opts);
  switch (scenario) {
    case Scenario::kCodeSwitched:
    case Scenario::kOcrNoise:
    case Scenario::kAsrNoise:
    case Scenario::kLongDoc:
      // Clean monolingual newswire: the realistic training distribution for
      // a system later exposed to the hostile channel.
      split.train = CleanNews(Mix(opts.seed, kTrainSalt),
                              std::max(opts.num_sentences, 80));
      break;
    case Scenario::kDiscontinuous: {
      ScenarioOptions train_opts = opts;
      train_opts.seed = Mix(opts.seed, kTrainSalt);
      train_opts.num_sentences = std::max(opts.num_sentences, 80);
      split.train = GenerateDiscontinuous(train_opts);
      break;
    }
    case Scenario::kEntityConsistency:
      split.train = GenerateConsistencyTrain(opts);
      break;
  }
  return split;
}

std::string RenderDocument(const text::Corpus& corpus, int doc) {
  const auto [first, last] = corpus.DocRange(doc);
  std::string out;
  for (int i = first; i < last; ++i) {
    const Sentence& s = corpus.sentences[static_cast<size_t>(i)];
    for (int t = 0; t < s.size(); ++t) {
      if (t > 0) out.push_back(' ');
      out += s.tokens[t];
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace dlner::data
