#include "text/tagging.h"

#include <algorithm>

#include "tensor/check.h"

namespace dlner::text {

TagScheme TagSchemeFromString(const std::string& name) {
  if (name == "io") return TagScheme::kIo;
  if (name == "bio") return TagScheme::kBio;
  if (name == "bioes") return TagScheme::kBioes;
  DLNER_CHECK_MSG(false, "unknown tag scheme: " << name);
}

TagSet::TagSet(std::vector<std::string> entity_types, TagScheme scheme)
    : entity_types_(std::move(entity_types)), scheme_(scheme) {
  DLNER_CHECK(!entity_types_.empty());
  tags_.push_back("O");
  roles_.push_back(Role::kOutside);
  type_index_.push_back(-1);

  auto add = [this](const std::string& prefix, Role role, int type_idx) {
    tags_.push_back(prefix + "-" + entity_types_[type_idx]);
    roles_.push_back(role);
    type_index_.push_back(type_idx);
  };
  for (int t = 0; t < static_cast<int>(entity_types_.size()); ++t) {
    switch (scheme_) {
      case TagScheme::kIo:
        add("I", Role::kInside, t);
        break;
      case TagScheme::kBio:
        add("B", Role::kBegin, t);
        add("I", Role::kInside, t);
        break;
      case TagScheme::kBioes:
        add("B", Role::kBegin, t);
        add("I", Role::kInside, t);
        add("E", Role::kEnd, t);
        add("S", Role::kSingle, t);
        break;
    }
  }
  for (int i = 0; i < size(); ++i) tag_ids_[tags_[i]] = i;
}

const std::string& TagSet::TagOf(int id) const {
  DLNER_CHECK_GE(id, 0);
  DLNER_CHECK_LT(id, size());
  return tags_[id];
}

int TagSet::IdOf(const std::string& tag) const {
  auto it = tag_ids_.find(tag);
  DLNER_CHECK_MSG(it != tag_ids_.end(), "unknown tag: " << tag);
  return it->second;
}

std::vector<int> TagSet::SpansToTagIds(const std::vector<Span>& spans,
                                       int num_tokens) const {
  DLNER_CHECK(SpansAreValid(spans, num_tokens));
  std::vector<Span> sorted = spans;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 1; i < sorted.size(); ++i) {
    DLNER_CHECK_MSG(sorted[i].start >= sorted[i - 1].end,
                    "SpansToTagIds requires flat (non-overlapping) spans");
  }

  std::vector<int> out(num_tokens, outside_id());
  for (const Span& sp : sorted) {
    const int len = sp.end - sp.start;
    switch (scheme_) {
      case TagScheme::kIo:
        for (int t = sp.start; t < sp.end; ++t) out[t] = IdOf("I-" + sp.type);
        break;
      case TagScheme::kBio:
        out[sp.start] = IdOf("B-" + sp.type);
        for (int t = sp.start + 1; t < sp.end; ++t) {
          out[t] = IdOf("I-" + sp.type);
        }
        break;
      case TagScheme::kBioes:
        if (len == 1) {
          out[sp.start] = IdOf("S-" + sp.type);
        } else {
          out[sp.start] = IdOf("B-" + sp.type);
          for (int t = sp.start + 1; t < sp.end - 1; ++t) {
            out[t] = IdOf("I-" + sp.type);
          }
          out[sp.end - 1] = IdOf("E-" + sp.type);
        }
        break;
    }
  }
  return out;
}

std::vector<Span> TagSet::TagIdsToSpans(const std::vector<int>& tag_ids) const {
  std::vector<Span> spans;
  int cur_start = -1;
  int cur_type = -1;

  auto close = [&](int end) {
    if (cur_start >= 0) {
      spans.push_back({cur_start, end, entity_types_[cur_type]});
      cur_start = -1;
      cur_type = -1;
    }
  };

  for (int t = 0; t < static_cast<int>(tag_ids.size()); ++t) {
    const int id = tag_ids[t];
    DLNER_CHECK_GE(id, 0);
    DLNER_CHECK_LT(id, size());
    const Role role = RoleOf(id);
    const int type = TypeOf(id);
    switch (role) {
      case Role::kOutside:
        close(t);
        break;
      case Role::kBegin:
        close(t);
        cur_start = t;
        cur_type = type;
        break;
      case Role::kSingle:
        close(t);
        spans.push_back({t, t + 1, entity_types_[type]});
        break;
      case Role::kInside:
        if (cur_start >= 0 && cur_type == type) {
          // continue
        } else {
          close(t);
          cur_start = t;  // lenient: stray I- starts a span
          cur_type = type;
        }
        break;
      case Role::kEnd:
        if (cur_start >= 0 && cur_type == type) {
          close(t + 1);
        } else {
          close(t);  // lenient: stray E- is a singleton
          spans.push_back({t, t + 1, entity_types_[type]});
        }
        break;
    }
  }
  close(static_cast<int>(tag_ids.size()));
  return spans;
}

bool TagSet::IsValidTransition(int from, int to) const {
  const Role fr = RoleOf(from);
  const Role tr = RoleOf(to);
  const int ft = TypeOf(from);
  const int tt = TypeOf(to);
  switch (scheme_) {
    case TagScheme::kIo:
      return true;  // any IO sequence is well-formed
    case TagScheme::kBio:
      // I-X must follow B-X or I-X of the same type.
      if (tr == Role::kInside) {
        return (fr == Role::kBegin || fr == Role::kInside) && ft == tt;
      }
      return true;
    case TagScheme::kBioes: {
      const bool from_open = (fr == Role::kBegin || fr == Role::kInside);
      const bool to_cont = (tr == Role::kInside || tr == Role::kEnd);
      if (from_open) return to_cont && ft == tt;  // must continue same entity
      return !to_cont;  // closed state can only start fresh (O, B, S)
    }
  }
  DLNER_CHECK(false);
}

bool TagSet::IsValidStart(int id) const {
  const Role r = RoleOf(id);
  if (scheme_ == TagScheme::kBioes || scheme_ == TagScheme::kBio) {
    return r == Role::kOutside || r == Role::kBegin || r == Role::kSingle;
  }
  return true;
}

bool TagSet::IsValidEnd(int id) const {
  const Role r = RoleOf(id);
  if (scheme_ == TagScheme::kBioes) {
    return r == Role::kOutside || r == Role::kEnd || r == Role::kSingle;
  }
  return true;
}

std::vector<Span> SpansFromStringTags(const std::vector<std::string>& tags) {
  std::vector<Span> spans;
  int cur_start = -1;
  std::string cur_type;

  auto close = [&](int end) {
    if (cur_start >= 0) {
      spans.push_back({cur_start, end, cur_type});
      cur_start = -1;
      cur_type.clear();
    }
  };

  for (int t = 0; t < static_cast<int>(tags.size()); ++t) {
    const std::string& tag = tags[t];
    if (tag == "O" || tag.size() < 3 || tag[1] != '-') {
      close(t);
      continue;
    }
    const char prefix = tag[0];
    const std::string type = tag.substr(2);
    switch (prefix) {
      case 'B':
        close(t);
        cur_start = t;
        cur_type = type;
        break;
      case 'S':
        close(t);
        spans.push_back({t, t + 1, type});
        break;
      case 'I':
        if (cur_start >= 0 && cur_type == type) break;
        close(t);
        cur_start = t;
        cur_type = type;
        break;
      case 'E':
        if (cur_start >= 0 && cur_type == type) {
          close(t + 1);
        } else {
          close(t);
          spans.push_back({t, t + 1, type});
        }
        break;
      default:
        close(t);
        break;
    }
  }
  close(static_cast<int>(tags.size()));
  return spans;
}

}  // namespace dlner::text
