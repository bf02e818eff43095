// The benchmark's workloads and the run that prints the result line.
#ifndef PERF_WORKLOADS_H_
#define PERF_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perf {

struct RunOptions {
  std::string workload;  // serve_light | serve_saturate | serve_mixed |
                         // offline_corpus
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;  // per-layer run instead of the end-to-end run
  std::string model;   // checkpoint (perf_harness train)
  std::string server;  // the built dlner_serve binary
  std::string out_dir; // run records and span logs are written here
};

/// Runs one workload and prints the result object as the last line of
/// standard output. Returns the process exit code.
int RunWorkload(const RunOptions& opts);

/// offline_corpus runs in worker processes of this executable, which print
/// "key value..." report lines. A setup worker loads the model and tags one
/// sentence; a part worker also runs a warm pass and then `part_us` of
/// timed TagCorpus calls.
int RunOfflineSetupWorker(const std::string& model);
int RunOfflinePartWorker(const std::string& model, std::uint64_t seed,
                         std::int64_t part_us);

}  // namespace perf

#endif  // PERF_WORKLOADS_H_
