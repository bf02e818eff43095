// In-memory span log for the traced run: the harness records a span around
// each of its own calls into a layer, keeps them in memory, and writes them
// once at the end as a Chrome trace (chrome://tracing, Perfetto).
#ifndef PERF_SPANS_H_
#define PERF_SPANS_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "perf/stats.h"
#include "serve/protocol.h"

namespace perf {

class SpanLog {
 public:
  /// Records [construction, destruction) as a child of the innermost open
  /// scope of the same log.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name) : log_(log) {
      index_ = static_cast<int>(log_->spans_.size());
      log_->spans_.push_back(
          Span{std::move(name), NowUs(), -1, log_->open_});
      log_->open_ = index_;
    }
    ~Scope() {
      Span& s = log_->spans_[static_cast<std::size_t>(index_)];
      s.end_us = NowUs();
      log_->open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << dlner::serve::JsonQuote(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_us;
    std::int64_t end_us;
    int parent;
  };
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perf

#endif  // PERF_SPANS_H_
