// One run's outcome: the counts and metrics of the result line, plus notes
// (sample counts, mismatches) that go to standard error and the run record.
#ifndef PERF_RESULT_H_
#define PERF_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& note) { notes.push_back(note); }
  /// An output differed from its reference: the run is not correct.
  void Mismatch(const std::string& what) {
    if (correct) notes.push_back("MISMATCH " + what);
    correct = false;
  }
};

}  // namespace perf

#endif  // PERF_RESULT_H_
