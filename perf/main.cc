// perf_harness — the benchmark's entry point (perf/README.md).
//
//   perf_harness train --out MODEL
//   perf_harness run --workload NAME --seed N --seconds S --trace 0|1
//                    --model MODEL --server DLNER_SERVE --out-dir DIR
//   perf_harness offline-setup|offline-part ...   (workers of `run`)
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/flags.h"
#include "perf/inputs.h"
#include "perf/workloads.h"

int main(int argc, char** argv) {
  using dlner::core::Args;
  using dlner::core::FlagKind;
  using dlner::core::FlagSpec;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "train") {
    Args args;
    if (!args.Parse(argc, argv, 2, FlagSpec{{"out", FlagKind::kValue}}) ||
        !args.Has("out")) {
      std::fprintf(stderr, "usage: perf_harness train --out MODEL\n");
      return 2;
    }
    std::string summary;
    if (!perf::TrainModel(args.Get("out"), &summary)) {
      std::fprintf(stderr, "perf_harness: training failed\n");
      return 1;
    }
    std::fprintf(stderr, "trained %s\n", summary.c_str());
    return 0;
  }
  if (cmd == "run") {
    const FlagSpec spec{{"workload", FlagKind::kValue},
                        {"seed", FlagKind::kValue},
                        {"seconds", FlagKind::kValue},
                        {"trace", FlagKind::kValue},
                        {"model", FlagKind::kValue},
                        {"server", FlagKind::kValue},
                        {"out-dir", FlagKind::kValue}};
    Args args;
    if (!args.Parse(argc, argv, 2, spec)) {
      std::fprintf(stderr, "perf_harness: %s\n", args.error().c_str());
      return 2;
    }
    perf::RunOptions o;
    o.workload = args.Get("workload");
    o.seed = args.GetUInt64("seed", 1);
    o.seconds = args.GetInt("seconds", 10);
    o.trace = args.GetInt("trace", 0) != 0;
    o.model = args.Get("model");
    o.server = args.Get("server");
    o.out_dir = args.Get("out-dir", ".");
    return perf::RunWorkload(o);
  }
  if (cmd == "offline-setup" || cmd == "offline-part") {
    const FlagSpec spec{{"model", FlagKind::kValue},
                        {"seed", FlagKind::kValue},
                        {"part-us", FlagKind::kValue}};
    Args args;
    if (!args.Parse(argc, argv, 2, spec) || !args.Has("model")) {
      std::fprintf(stderr, "perf_harness: %s\n", args.error().c_str());
      return 2;
    }
    if (cmd == "offline-setup") return perf::RunOfflineSetupWorker(args.Get("model"));
    std::int64_t part_us = 0;
    if (!dlner::core::ParseInt64(args.Get("part-us"), &part_us) ||
        part_us <= 0) {
      std::fprintf(stderr, "perf_harness: bad --part-us\n");
      return 2;
    }
    return perf::RunOfflinePartWorker(args.Get("model"),
                                      args.GetUInt64("seed", 1), part_us);
  }
  std::fprintf(stderr, "usage: perf_harness train|run ...\n");
  return 2;
}
