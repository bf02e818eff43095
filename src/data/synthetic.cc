#include "data/synthetic.h"

#include <cctype>
#include <sstream>

#include "data/banks.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace dlner::data {
namespace {

using text::Corpus;
using text::Sentence;
using text::Span;

template <typename T>
const T& Leak(T* t) {
  return *t;
}

// One realized entity mention: surface tokens, its type label, and any
// nested inner mentions (spans relative to the surface start).
struct EntitySurface {
  std::vector<std::string> tokens;
  std::string type;
  std::vector<Span> inner;
};

void AppendWords(std::vector<std::string>* out, const std::string& phrase) {
  for (std::string& w : text::SplitWhitespace(phrase)) {
    out->push_back(std::move(w));
  }
}

// ---------------------------------------------------------------------------
// Templates. Placeholders in {braces} are entity or word-class slots; all
// other whitespace-separated tokens are literals.
// ---------------------------------------------------------------------------

const std::vector<std::string>& NewsTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "{PER} {v} the {adj} {n} at a {n} in {LOC} .",
      "{ORG} {v} a {adj} {n} with {ORG} on {day} .",
      "{PER} , a {n} from {LOC} , {v} {ORG} .",
      "{ORG} {v} {ORG} in the {MISC} {n} .",
      "The {MISC} {n} {v} after {PER} {v} in {LOC} .",
      "{LOC} officials {v} the {n} before the {MISC} .",
      "{PER} and {PER} {v} a {n} about the {adj} {n} .",
      "Shares of {ORG} {v} {adv} in {LOC} trading .",
      "{ORG} coach {PER} {v} the {n} in {LOC} .",
      "In {LOC} , {PER} {v} that the {n} was {adj} .",
      "{ORG} {v} its {adj} {n} for {LOC} .",
      "The {n} between {ORG} and {ORG} {v} {adv} .",
      "{PER} {v} to {LOC} for the {MISC} .",
      "{LOC} based {ORG} {v} a {adj} {n} .",
      "{PER} {v} {adv} about the {MISC} {n} in {LOC} .",
      "A {adj} {n} in {LOC} {v} {ORG} to {v} its {n} .",
      "{ORG} {v} the {n} , and {PER} {v} the {adj} {n} .",
      "{MISC} champion {PER} {v} the {LOC} {n} .",
      "{PER} {v} a {n} after the {adj} {n} in {LOC} .",
      "{ORG} chairman {PER} {v} the {adj} {n} on {day} ."});
  return v;
}

const std::vector<std::string>& OntoTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "{PERSON} {v} the {n} in {GPE} on {DATE} .",
      "{ORG} {v} a {MONEY} {n} , up {PERCENT} from last year .",
      "The {NORP} delegation {v} {FAC} at {TIME} .",
      "{PERSON} {v} {CARDINAL} {n} near the {LOCNAT} .",
      "Under the {LAW} , {ORG} must {v} its {n} by {DATE} .",
      "The {ORDINAL} {EVENT} {v} in {GPE} .",
      "{ORG} {v} the {PRODUCT} for {MONEY} .",
      "{PERSON} , who speaks {LANGUAGE} , {v} {GPE} on {DATE} .",
      "About {PERCENT} of the {n} {v} {QUANTITY} of {n} .",
      "Critics {v} {ART} , the {adj} {n} by {PERSON} .",
      "{NORP} voters {v} the {n} at {TIME} on {DATE} .",
      "{ORG} {v} {CARDINAL} {n} across the {LOCNAT} .",
      "The {n} at {FAC} {v} {QUANTITY} of {n} .",
      "{PERSON} {v} the {ORDINAL} {n} of the {EVENT} .",
      "{GPE} {v} the {LAW} after the {adj} {n} .",
      "The {PRODUCT} {v} {MONEY} in {adj} sales .",
      "{PERSON} {v} {LANGUAGE} lessons at {FAC} .",
      "{ORG} {v} a {adj} {n} worth {MONEY} on {DATE} ."});
  return v;
}

const std::vector<std::string>& SocialTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "omg just saw {person} at {location} !!",
      "{product} is honestly so {adj}",
      "cant believe {group} {v} again",
      "watching {creative-work} tonight , no spoilers",
      "{person} x {person} collab when ?",
      "{corporation} customer service is the worst",
      "yo {location} weather is wild rn",
      "{person} really {v} that , wow",
      "new {product} drop from {corporation} !!",
      "{group} show in {location} was insane",
      "ngl {creative-work} kinda {adj}",
      "why is {corporation} trending again",
      "{person} {v} my {n} , im done",
      "someone said {product} beats {product} , thoughts ?",
      "{location} trip w {person} was a whole vibe",
      "{group} dropped a {adj} {n} today"});
  return v;
}

const std::vector<std::string>& FineTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "{person.athlete} scored for {organization.sports_team} in "
      "{location.city} .",
      "{person.politician} of {location.country} {v} the {n} .",
      "{person.artist} painted {art.painting} in {location.city} .",
      "{person.scientist} at {organization.university} {v} a {adj} {n} .",
      "{person.author} wrote {art.book} about the {event.war} .",
      "{person.actor} stars in {art.film} .",
      "{organization.company} {v} the {product.software} platform .",
      "{organization.government} {v} the {n} after the {event.election} .",
      "{organization.band} played {art.song} at the {event.festival} .",
      "{organization.newspaper} {v} the {n} about {person.politician} .",
      "The {product.vehicle} {v} near {location.river} .",
      "Hikers {v} {location.mountain} on the {location.island} coast .",
      "{organization.company} sells the {product.device} and the "
      "{product.food} brand .",
      "{event.sports_event} fans {v} {person.athlete} in {location.city} .",
      "{person.artist} {v} {art.song} during the {event.festival} .",
      "{organization.university} {v} {person.scientist} for the {n} .",
      "{location.facility} hosted the {event.election} debate .",
      "{person.author} {v} {organization.newspaper} over {art.book} ."});
  return v;
}

const std::vector<std::string>& NestedTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "{NORG} {v} a {adj} {n} .",
      "{PER} , chairman of {NORG} , {v} the {n} .",
      "The {n} at {NFAC} {v} {adv} .",
      "{NORG} and {ORG} {v} a {n} in {LOC} .",
      "{PER} {v} {NFAC} before the {n} .",
      "{NORG} president {PER} {v} the {adj} {n} .",
      "Researchers at {NORG} {v} the {n} .",
      "{PER} {v} the {n} near {NFAC} .",
      "{ORG} {v} {NORG} for a {adj} {n} .",
      "The {NORG} board {v} {PER} on {day} .",
      // Flat sentences keep the nested fraction realistic (the survey cites
      // 30% of ACE sentences containing nested mentions, not 100%).
      "{PER} {v} the {adj} {n} in {LOC} .",
      "{ORG} {v} a {n} with {ORG} .",
      "{PER} and {PER} {v} the {n} .",
      "{LOC} officials {v} the {adj} {n} .",
      "{ORG} {v} {adv} after the {n} .",
      "{PER} {v} to {LOC} on {day} ."});
  return v;
}

const std::vector<std::string>& BioTemplates() {
  static const auto& v = Leak(new std::vector<std::string>{
      "Patients with {DISEASE} were treated with {CHEMICAL} .",
      "Mutation of {GENE} increases the risk of {DISEASE} .",
      "{CHEMICAL} inhibits {GENE} expression in {adj} cells .",
      "The {DISEASE} cohort received {num} mg of {CHEMICAL} daily .",
      "{GENE} and {GENE} regulate the response to {CHEMICAL} .",
      "Treatment with {CHEMICAL} reduced {DISEASE} symptoms .",
      "Loss of {GENE} is associated with {DISEASE} .",
      "{CHEMICAL} induced {DISEASE} in {num} of {num} subjects .",
      "Expression of {GENE} was elevated in {DISEASE} tissue .",
      "Combined {CHEMICAL} and {CHEMICAL} therapy targets {GENE} ."});
  return v;
}

// ---------------------------------------------------------------------------
// Generator.
// ---------------------------------------------------------------------------

class Generator {
 public:
  Generator(Genre genre, const GenOptions& opts)
      : genre_(genre), opts_(opts), rng_(opts.seed) {}

  Corpus Generate() {
    Corpus corpus;
    corpus.sentences.reserve(opts_.num_sentences);
    const std::vector<std::string>& templates = TemplatesFor(genre_);
    for (int i = 0; i < opts_.num_sentences; ++i) {
      const std::string& tmpl =
          templates[rng_.UniformInt(0, static_cast<int>(templates.size()) - 1)];
      Sentence s = Realize(tmpl);
      ApplyNoise(&s);
      corpus.sentences.push_back(std::move(s));
    }
    return corpus;
  }

 private:
  static const std::vector<std::string>& TemplatesFor(Genre genre) {
    switch (genre) {
      case Genre::kNews:
        return NewsTemplates();
      case Genre::kOnto:
        return OntoTemplates();
      case Genre::kSocial:
        return SocialTemplates();
      case Genre::kFineGrained:
        return FineTemplates();
      case Genre::kNested:
        return NestedTemplates();
      case Genre::kBio:
        return BioTemplates();
    }
    DLNER_CHECK(false);
  }

  const std::string& Pick(const std::vector<std::string>& v) {
    DLNER_CHECK(!v.empty());
    return v[rng_.UniformInt(0, static_cast<int>(v.size()) - 1)];
  }

  // Draws from the train portion, or the held-out portion with probability
  // opts_.oov_entity_fraction.
  const std::string& PickSplit(const banks::SplitBank& bank) {
    if (opts_.oov_entity_fraction > 0.0 &&
        rng_.Bernoulli(opts_.oov_entity_fraction)) {
      return Pick(bank.heldout);
    }
    return Pick(bank.train);
  }

  std::string Digits(int lo, int hi) {
    return std::to_string(rng_.UniformInt(lo, hi));
  }

  Sentence Realize(const std::string& tmpl) {
    Sentence s;
    std::istringstream ss(tmpl);
    std::string piece;
    while (ss >> piece) {
      if (piece.size() >= 2 && piece.front() == '{' && piece.back() == '}') {
        const std::string slot = piece.substr(1, piece.size() - 2);
        if (FillWordClass(slot, &s)) continue;
        EntitySurface ent = MakeEntity(slot);
        const int start = s.size();
        for (std::string& tok : ent.tokens) s.tokens.push_back(std::move(tok));
        const int end = s.size();
        s.spans.push_back({start, end, ent.type});
        for (const Span& inner : ent.inner) {
          s.spans.push_back(
              {start + inner.start, start + inner.end, inner.type});
        }
      } else {
        s.tokens.push_back(piece);
      }
    }
    return s;
  }

  // Handles non-entity slots; returns false if `slot` names an entity.
  bool FillWordClass(const std::string& slot, Sentence* s) {
    if (slot == "v") {
      s->tokens.push_back(Pick(banks::Verbs()));
    } else if (slot == "n") {
      s->tokens.push_back(Pick(banks::Nouns()));
    } else if (slot == "adj") {
      s->tokens.push_back(Pick(banks::Adjectives()));
    } else if (slot == "adv") {
      s->tokens.push_back(Pick(banks::Adverbs()));
    } else if (slot == "day") {
      s->tokens.push_back(Pick(banks::Weekdays()));
    } else if (slot == "num") {
      s->tokens.push_back(Digits(2, 90));
    } else {
      return false;
    }
    return true;
  }

  EntitySurface MakeEntity(const std::string& slot) {
    EntitySurface e;
    e.type = slot;  // overridden below where the slot name isn't the label

    // --- News / shared coarse types ---
    if (slot == "PER" || slot == "PERSON" || slot == "person" ||
        slot.rfind("person.", 0) == 0) {
      if (slot == "PERSON") e.type = "PERSON";
      if (rng_.Bernoulli(0.35)) {
        e.tokens.push_back(PickSplit(banks::FirstNames()));
      } else {
        e.tokens.push_back(PickSplit(banks::FirstNames()));
        e.tokens.push_back(PickSplit(banks::LastNames()));
      }
      return e;
    }
    if (slot == "LOC" || slot == "GPE" || slot == "location") {
      if (rng_.Bernoulli(0.65)) {
        e.tokens.push_back(PickSplit(banks::Cities()));
      } else {
        e.tokens.push_back(PickSplit(banks::Countries()));
      }
      return e;
    }
    if (slot == "ORG" || slot == "corporation") {
      // Kinds 1 and 3 deliberately reuse city and surname surfaces inside
      // ORG mentions ("Boston Rangers", "Mensah Holdings"), so the same
      // token is a LOC or part of a PER elsewhere — the contextual
      // disambiguation burden real corpora impose.
      const int kind = rng_.UniformInt(0, 3);
      if (kind == 0) {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
        e.tokens.push_back(Pick(banks::OrgSuffixes()));
      } else if (kind == 1) {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back(Pick(banks::TeamNames()));
      } else if (kind == 2) {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
      } else {
        e.tokens.push_back(PickSplit(banks::LastNames()));
        e.tokens.push_back(Pick(banks::OrgSuffixes()));
      }
      return e;
    }
    if (slot == "MISC") {
      if (rng_.Bernoulli(0.6)) {
        e.tokens.push_back(PickSplit(banks::Nationalities()));
      } else {
        e.tokens.push_back(PickSplit(banks::Nationalities()));
        AppendWords(&e.tokens, Pick(banks::Events()));
      }
      return e;
    }

    // --- OntoNotes-like extras ---
    if (slot == "NORP") {
      e.tokens.push_back(PickSplit(banks::Nationalities()));
      return e;
    }
    if (slot == "FAC") {
      e.tokens.push_back(PickSplit(banks::Cities()));
      e.tokens.push_back(Pick(banks::Facilities()));
      return e;
    }
    if (slot == "LOCNAT") {
      e.type = "LOC";
      e.tokens.push_back(PickSplit(banks::OrgBases()));
      e.tokens.push_back(Pick(banks::NaturalPlaces()));
      return e;
    }
    if (slot == "PRODUCT" || slot == "product") {
      e.tokens.push_back(PickSplit(banks::Products()));
      if (rng_.Bernoulli(0.4)) e.tokens.push_back(Digits(2, 9));
      return e;
    }
    if (slot == "EVENT") {
      e.tokens.push_back(PickSplit(banks::Nationalities()));
      AppendWords(&e.tokens, Pick(banks::Events()));
      return e;
    }
    if (slot == "ART" || slot == "creative-work") {
      if (slot == "ART") e.type = "WORK_OF_ART";
      AppendWords(&e.tokens, Pick(banks::WorksOfArt()));
      return e;
    }
    if (slot == "LAW") {
      AppendWords(&e.tokens, Pick(banks::Laws()));
      return e;
    }
    if (slot == "LANGUAGE") {
      e.tokens.push_back(Pick(banks::Languages()));
      return e;
    }
    if (slot == "DATE") {
      const int kind = rng_.UniformInt(0, 2);
      if (kind == 0) {
        e.tokens.push_back(Pick(banks::Months()));
        e.tokens.push_back(Digits(1, 28));
      } else if (kind == 1) {
        e.tokens.push_back(Pick(banks::Months()));
        e.tokens.push_back(Digits(1, 28));
        e.tokens.push_back(",");
        e.tokens.push_back(Digits(1990, 2022));
      } else {
        e.tokens.push_back("last");
        e.tokens.push_back(Pick(banks::Weekdays()));
      }
      return e;
    }
    if (slot == "TIME") {
      e.tokens.push_back(Digits(1, 12));
      e.tokens.push_back(rng_.Bernoulli(0.5) ? "p.m." : "a.m.");
      return e;
    }
    if (slot == "PERCENT") {
      e.tokens.push_back(Digits(1, 99));
      e.tokens.push_back("%");
      return e;
    }
    if (slot == "MONEY") {
      e.tokens.push_back("$");
      e.tokens.push_back(Digits(1, 900));
      e.tokens.push_back(rng_.Bernoulli(0.5) ? "million" : "billion");
      return e;
    }
    if (slot == "QUANTITY") {
      e.tokens.push_back(Digits(2, 500));
      static const char* kUnits[] = {"kilograms", "miles", "tons", "liters"};
      e.tokens.push_back(kUnits[rng_.UniformInt(0, 3)]);
      return e;
    }
    if (slot == "ORDINAL") {
      e.tokens.push_back(Pick(banks::Ordinals()));
      return e;
    }
    if (slot == "CARDINAL") {
      if (rng_.Bernoulli(0.5)) {
        e.tokens.push_back(Pick(banks::NumberWords()));
      } else {
        e.tokens.push_back(Digits(2, 9000));
      }
      return e;
    }

    // --- Social extras ---
    if (slot == "group") {
      e.tokens.push_back("The");
      e.tokens.push_back(Pick(banks::TeamNames()));
      return e;
    }

    // --- Fine-grained: dispatch on the coarse prefix. ---
    if (slot.rfind("organization.", 0) == 0) {
      const std::string fine = slot.substr(13);
      if (fine == "company") {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
        e.tokens.push_back(Pick(banks::OrgSuffixes()));
      } else if (fine == "sports_team") {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back(Pick(banks::TeamNames()));
      } else if (fine == "government") {
        e.tokens.push_back(PickSplit(banks::Countries()));
        e.tokens.push_back("Parliament");
      } else if (fine == "university") {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back("University");
      } else if (fine == "band") {
        e.tokens.push_back("The");
        e.tokens.push_back(Pick(banks::TeamNames()));
      } else if (fine == "newspaper") {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back(rng_.Bernoulli(0.5) ? "Herald" : "Times");
      } else {
        DLNER_CHECK_MSG(false, "unknown fine org: " << slot);
      }
      return e;
    }
    if (slot.rfind("location.", 0) == 0) {
      const std::string fine = slot.substr(9);
      if (fine == "city") {
        e.tokens.push_back(PickSplit(banks::Cities()));
      } else if (fine == "country") {
        e.tokens.push_back(PickSplit(banks::Countries()));
      } else if (fine == "island") {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
        e.tokens.push_back("Island");
      } else if (fine == "river") {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
        e.tokens.push_back("River");
      } else if (fine == "mountain") {
        e.tokens.push_back("Mount");
        e.tokens.push_back(PickSplit(banks::LastNames()));
      } else if (fine == "facility") {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back(Pick(banks::Facilities()));
      } else {
        DLNER_CHECK_MSG(false, "unknown fine loc: " << slot);
      }
      return e;
    }
    if (slot.rfind("product.", 0) == 0) {
      e.tokens.push_back(PickSplit(banks::Products()));
      const std::string fine = slot.substr(8);
      if (fine == "vehicle" || fine == "device") {
        e.tokens.push_back(Digits(2, 9));
      }
      return e;
    }
    if (slot.rfind("event.", 0) == 0) {
      const std::string fine = slot.substr(6);
      if (fine == "sports_event") {
        e.tokens.push_back(PickSplit(banks::Nationalities()));
        AppendWords(&e.tokens, Pick(banks::Events()));
      } else if (fine == "election") {
        e.tokens.push_back(Digits(1990, 2022));
        e.tokens.push_back(PickSplit(banks::Countries()));
        e.tokens.push_back("election");
      } else if (fine == "festival") {
        e.tokens.push_back(PickSplit(banks::Cities()));
        e.tokens.push_back("Festival");
      } else if (fine == "war") {
        e.tokens.push_back(PickSplit(banks::OrgBases()));
        e.tokens.push_back("War");
      } else {
        DLNER_CHECK_MSG(false, "unknown fine event: " << slot);
      }
      return e;
    }
    if (slot.rfind("art.", 0) == 0) {
      AppendWords(&e.tokens, Pick(banks::WorksOfArt()));
      return e;
    }

    // --- Nested surfaces (inner spans recorded). ---
    if (slot == "NORG") {
      e.type = "ORG";
      const int kind = rng_.UniformInt(0, 2);
      if (kind == 0) {
        // "University of <LOC>": inner LOC at token 2.
        e.tokens = {"University", "of", PickSplit(banks::Cities())};
        e.inner.push_back({2, 3, "LOC"});
      } else if (kind == 1) {
        // "<LOC> National Bank": inner LOC at token 0.
        e.tokens = {PickSplit(banks::Cities()), "National", "Bank"};
        e.inner.push_back({0, 1, "LOC"});
      } else {
        // "<PER> Institute": inner PER at token 0.
        e.tokens = {PickSplit(banks::LastNames()), "Institute"};
        e.inner.push_back({0, 1, "PER"});
      }
      return e;
    }
    if (slot == "NFAC") {
      e.type = "FAC";
      // "<LOC> <Facility>": inner LOC at token 0.
      e.tokens = {PickSplit(banks::Cities()), Pick(banks::Facilities())};
      e.inner.push_back({0, 1, "LOC"});
      return e;
    }

    // --- Bio surfaces. ---
    if (slot == "DISEASE") {
      e.type = "Disease";
      if (rng_.Bernoulli(0.4)) {
        e.tokens.push_back(Pick(banks::DiseaseModifiers()));
      }
      e.tokens.push_back(PickSplit(banks::LastNames()));
      e.tokens.push_back(Pick(banks::DiseaseHeads()));
      return e;
    }
    if (slot == "CHEMICAL") {
      e.type = "Chemical";
      e.tokens.push_back(Pick(banks::ChemSyllables()) +
                         Pick(banks::ChemSyllables()) +
                         Pick(banks::ChemSuffixes()));
      return e;
    }
    if (slot == "GENE") {
      e.type = "Gene";
      e.tokens.push_back(Pick(banks::GenePrefixes()) + Digits(1, 99));
      return e;
    }

    DLNER_CHECK_MSG(false, "unknown entity slot: " << slot);
  }

  void ApplyTypo(std::string* tok) {
    if (tok->size() < 3) return;
    const int op = rng_.UniformInt(0, 2);
    const int i = rng_.UniformInt(1, static_cast<int>(tok->size()) - 2);
    if (op == 0) {
      std::swap((*tok)[i], (*tok)[i + 1]);
    } else if (op == 1) {
      tok->erase(i, 1);
    } else {
      tok->insert(i, 1, (*tok)[i]);
    }
  }

  void ApplyNoise(Sentence* s) {
    // Token membership in any entity span.
    std::vector<bool> in_entity(s->size(), false);
    for (const Span& sp : s->spans) {
      for (int t = sp.start; t < sp.end; ++t) in_entity[t] = true;
    }
    for (int t = 0; t < s->size(); ++t) {
      std::string& tok = s->tokens[t];
      if (opts_.typo_prob > 0.0 && rng_.Bernoulli(opts_.typo_prob)) {
        ApplyTypo(&tok);
      }
      if (in_entity[t] && opts_.lowercase_prob > 0.0 &&
          rng_.Bernoulli(opts_.lowercase_prob)) {
        for (char& c : tok) c = static_cast<char>(std::tolower(c));
      }
    }
    if (opts_.hashtag_prob > 0.0) {
      for (const Span& sp : s->spans) {
        if (rng_.Bernoulli(opts_.hashtag_prob)) {
          s->tokens[sp.start] = "#" + s->tokens[sp.start];
        }
      }
    }
    if (opts_.slang_prob > 0.0 && rng_.Bernoulli(opts_.slang_prob)) {
      s->tokens.push_back(PickSplit(banks::Slang()));
    }
  }

  Genre genre_;
  GenOptions opts_;
  Rng rng_;
};

}  // namespace

Genre GenreFromString(const std::string& name) {
  if (name == "news") return Genre::kNews;
  if (name == "onto") return Genre::kOnto;
  if (name == "social") return Genre::kSocial;
  if (name == "fine") return Genre::kFineGrained;
  if (name == "nested") return Genre::kNested;
  if (name == "bio") return Genre::kBio;
  DLNER_CHECK_MSG(false, "unknown genre: " << name);
}

std::string GenreToString(Genre genre) {
  switch (genre) {
    case Genre::kNews:
      return "news";
    case Genre::kOnto:
      return "onto";
    case Genre::kSocial:
      return "social";
    case Genre::kFineGrained:
      return "fine";
    case Genre::kNested:
      return "nested";
    case Genre::kBio:
      return "bio";
  }
  DLNER_CHECK(false);
}

GenOptions DefaultOptionsFor(Genre genre) {
  GenOptions opts;
  if (genre == Genre::kSocial) {
    opts.typo_prob = 0.06;
    opts.lowercase_prob = 0.45;
    opts.hashtag_prob = 0.15;
    opts.slang_prob = 0.4;
  }
  return opts;
}

const std::vector<std::string>& EntityTypesFor(Genre genre) {
  static const auto& news = Leak(new std::vector<std::string>{
      "PER", "LOC", "ORG", "MISC"});
  static const auto& onto = Leak(new std::vector<std::string>{
      "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
      "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
      "QUANTITY", "ORDINAL", "CARDINAL"});
  static const auto& social = Leak(new std::vector<std::string>{
      "person", "location", "corporation", "product", "creative-work",
      "group"});
  static const auto& fine = Leak(new std::vector<std::string>{
      "person.athlete", "person.politician", "person.artist",
      "person.scientist", "person.author", "person.actor",
      "organization.company", "organization.sports_team",
      "organization.government", "organization.university",
      "organization.band", "organization.newspaper", "location.city",
      "location.country", "location.island", "location.river",
      "location.mountain", "location.facility", "product.vehicle",
      "product.software", "product.device", "product.food",
      "event.sports_event", "event.election", "event.festival", "event.war",
      "art.book", "art.song", "art.film", "art.painting"});
  static const auto& nested = Leak(new std::vector<std::string>{
      "PER", "LOC", "ORG", "FAC"});
  static const auto& bio = Leak(new std::vector<std::string>{
      "Disease", "Chemical", "Gene"});
  switch (genre) {
    case Genre::kNews:
      return news;
    case Genre::kOnto:
      return onto;
    case Genre::kSocial:
      return social;
    case Genre::kFineGrained:
      return fine;
    case Genre::kNested:
      return nested;
    case Genre::kBio:
      return bio;
  }
  DLNER_CHECK(false);
}

text::Corpus GenerateCorpus(Genre genre, const GenOptions& opts) {
  Generator gen(genre, opts);
  return gen.Generate();
}

std::vector<std::vector<std::string>> GenerateUnlabeledText(Genre genre,
                                                            int num_sentences,
                                                            uint64_t seed) {
  GenOptions opts = DefaultOptionsFor(genre);
  opts.seed = seed;
  opts.num_sentences = num_sentences;
  text::Corpus corpus = GenerateCorpus(genre, opts);
  std::vector<std::vector<std::string>> out;
  out.reserve(corpus.sentences.size());
  for (text::Sentence& s : corpus.sentences) out.push_back(std::move(s.tokens));
  return out;
}

}  // namespace dlner::data
