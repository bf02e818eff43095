// Checked command-line flag parsing shared by the dlner and dlner_serve
// tools.
//
// This replaces the tools' original ad-hoc parser, which had three classes
// of silent failure on untrusted input: numeric values went through
// atoi/atof (so "--threads abc" became 0 and "--epochs 12x" became 12),
// 64-bit seeds were truncated through int, and unknown flags or flags with
// a missing value were accepted without complaint. Here every subcommand
// declares the flags it accepts (a FlagSpec); anything outside the spec,
// any value-taking flag without a value, and any malformed number is a
// loud error instead of a default.
#ifndef DLNER_CORE_FLAGS_H_
#define DLNER_CORE_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace dlner::core {

// Whole-string checked numeric parsing: the entire string must be one
// number of the target type, in range; anything else (empty string,
// trailing garbage, overflow, a sign on an unsigned, nan) returns false
// and leaves *out untouched. These are the testable primitives under the
// Args typed accessors below.
bool ParseInt(const std::string& s, int* out);
bool ParseInt64(const std::string& s, std::int64_t* out);
bool ParseUInt64(const std::string& s, std::uint64_t* out);
bool ParseDouble(const std::string& s, double* out);

/// How a flag consumes command-line arguments.
enum class FlagKind {
  kBool,           // --relaxed            (never takes a value)
  kValue,          // --epochs 12          (next argv entry, required)
  kOptionalValue,  // --gazetteer [0.7]    (next entry iff it is not a flag)
};

/// The flags one subcommand accepts: name (without the "--") -> kind.
using FlagSpec = std::map<std::string, FlagKind>;

class Args {
 public:
  Args() = default;

  /// Parses argv[start..argc). Returns false (with error() describing the
  /// offending argument) on an unknown flag, a kValue flag with no value
  /// (end of argv or a "--"-prefixed token where the value should be), or
  /// a stray positional argument. Repeated flags keep the last occurrence.
  bool Parse(int argc, char* const* argv, int start, const FlagSpec& spec);
  const std::string& error() const { return error_; }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& dflt = "") const;

  /// Checked typed accessors: a malformed value prints the program name
  /// (argv[0]'s last path component, as given to Parse), the offending flag
  /// and value to stderr and exits 1 — garbage never silently becomes 0
  /// (the old atoi behavior) and seeds above INT_MAX survive (GetUInt64
  /// never round-trips through int).
  int GetInt(const std::string& key, int dflt) const;
  std::uint64_t GetUInt64(const std::string& key, std::uint64_t dflt) const;
  double GetDouble(const std::string& key, double dflt) const;

 private:
  [[noreturn]] void FailFlag(const std::string& key,
                             const char* expected) const;

  std::map<std::string, std::string> values_;
  std::string error_;
  std::string program_;
};

}  // namespace dlner::core

#endif  // DLNER_CORE_FLAGS_H_
