#include "core/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dlner::core {

namespace {

bool LooksLikeFlag(const char* s) {
  return s[0] == '-' && s[1] == '-';
}

// strto* skip leading whitespace (so " -1" would sneak past ParseUInt64's
// sign check); whole-string parsing means no whitespace anywhere.
bool HasLeadingSpace(const std::string& s) {
  return !s.empty() && std::isspace(static_cast<unsigned char>(s[0])) != 0;
}

}  // namespace

bool ParseInt64(const std::string& s, std::int64_t* out) {
  if (s.empty() || HasLeadingSpace(s)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  std::int64_t v = 0;
  if (!ParseInt64(s, &v)) return false;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseUInt64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || HasLeadingSpace(s)) return false;
  // strtoull silently wraps negative input ("-1" -> UINT64_MAX); reject any
  // sign up front so a seed is always the literal digits given.
  if (s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty() || HasLeadingSpace(s)) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) return false;
  if (std::isnan(v)) return false;
  *out = v;
  return true;
}

bool Args::Parse(int argc, char* const* argv, int start, const FlagSpec& spec) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path(argv[0]);
    program_ = path.substr(path.find_last_of('/') + 1);
  }
  for (int i = start; i < argc; ++i) {
    const char* arg = argv[i];
    if (!LooksLikeFlag(arg) || arg[2] == '\0') {
      error_ = std::string("unexpected argument \"") + arg + "\"";
      return false;
    }
    const std::string name(arg + 2);
    const auto it = spec.find(name);
    if (it == spec.end()) {
      error_ = "unknown flag --" + name;
      return false;
    }
    switch (it->second) {
      case FlagKind::kBool:
        values_[name] = "true";
        break;
      case FlagKind::kValue:
        if (i + 1 >= argc || LooksLikeFlag(argv[i + 1])) {
          error_ = "flag --" + name + " requires a value";
          return false;
        }
        values_[name] = argv[++i];
        break;
      case FlagKind::kOptionalValue:
        if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
          values_[name] = argv[++i];
        } else {
          values_[name] = "true";
        }
        break;
    }
  }
  return true;
}

std::string Args::Get(const std::string& key, const std::string& dflt) const {
  const auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

void Args::FailFlag(const std::string& key, const char* expected) const {
  std::fprintf(stderr, "%s: --%s: invalid %s \"%s\"\n", program_.c_str(),
               key.c_str(), expected, Get(key).c_str());
  std::exit(1);
}

int Args::GetInt(const std::string& key, int dflt) const {
  if (!Has(key)) return dflt;
  int v = 0;
  if (!ParseInt(Get(key), &v)) FailFlag(key, "integer");
  return v;
}

std::uint64_t Args::GetUInt64(const std::string& key,
                              std::uint64_t dflt) const {
  if (!Has(key)) return dflt;
  std::uint64_t v = 0;
  if (!ParseUInt64(Get(key), &v)) {
    FailFlag(key, "unsigned integer");
  }
  return v;
}

double Args::GetDouble(const std::string& key, double dflt) const {
  if (!Has(key)) return dflt;
  double v = 0.0;
  if (!ParseDouble(Get(key), &v)) FailFlag(key, "number");
  return v;
}

}  // namespace dlner::core
