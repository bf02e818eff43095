// dlner_serve — long-lived tagging server (docs/SERVING.md).
//
//   dlner_serve --model model.bin
//   dlner_serve --models ner=a.bin,chem=b.bin --port 7400
//
// Speaks newline-delimited JSON over TCP:
//
//   -> {"id":1,"text":"John Smith visited Paris ."}
//   <- {"id":1,"model":"default","cached":false,"tokens":[...],"spans":[...]}
//
// plus admin commands ({"cmd":"reload","model":...,"path":...},
// {"cmd":"models"}, {"cmd":"stats"}, {"cmd":"metrics"},
// {"cmd":"shutdown"}). Concurrent requests are micro-batched through the
// compiled inference plan, so responses are byte-identical to `dlner tag`
// on the same model and input. Live observability (request-scoped stage
// spans, lifetime serve.* counters and histograms, a Prometheus scrape on
// --metrics-port, slow-request logging) is described in
// docs/OBSERVABILITY.md.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/flags.h"
#include "serve/server.h"
#include "tools/tool_common.h"

namespace {

using namespace dlner;
using core::Args;
using core::FlagKind;
using core::FlagSpec;

std::atomic<bool> g_interrupted{false};

void OnSignal(int) { g_interrupted.store(true); }

void Usage() {
  std::printf(
      "dlner_serve --model FILE | --models NAME=FILE[,NAME=FILE...]\n"
      "  --host ADDR          bind address (default 127.0.0.1)\n"
      "  --port N             TCP port; 0 = ephemeral, printed on stdout\n"
      "  --queue-max N        admission-queue bound; full -> 429 (default 256)\n"
      "  --cache-cap N        LRU response-cache entries; 0 = off (default 4096)\n"
      "  --max-line-bytes N   request lines above this -> 413 (default 1MiB)\n"
      "  --max-tokens N       requests above this -> 413 (default 512)\n"
      "  --threads N          worker threads for the inference plan\n"
      "  --metrics-port N     Prometheus text scrape on this port (HTTP;\n"
      "                       0 = ephemeral, printed on stdout; default off)\n"
      "  --trace-sample-rate F  fraction of requests traced as\n"
      "                       serve/request + stage spans (default 1.0)\n"
      "  --slow-request-us N  log serve_slow_request (warn, with stage\n"
      "                       breakdown) for slower requests; 0 = off\n"
      "observability: --log-level LEVEL --trace-out FILE --metrics-out FILE\n"
      "document requests: add \"doc\":true to a tagging request to thread it\n"
      "                   through the connection's entity-consistency memory\n"
      "protocol and backpressure semantics: docs/SERVING.md\n");
}

// "--models ner=a.bin,chem=b.bin" -> registry loads. Returns false on a
// malformed entry or a checkpoint that fails to load.
bool LoadModels(const std::string& arg, serve::ModelRegistry* registry) {
  std::size_t pos = 0;
  while (pos < arg.size()) {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string entry = arg.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      std::fprintf(stderr,
                   "dlner_serve: --models: expected NAME=FILE, got \"%s\"\n",
                   entry.c_str());
      return false;
    }
    const std::string name = entry.substr(0, eq);
    const std::string path = entry.substr(eq + 1);
    if (!registry->Load(name, path)) {
      std::fprintf(stderr, "dlner_serve: cannot load model %s from %s\n",
                   name.c_str(), path.c_str());
      return false;
    }
    std::printf("loaded model %s from %s\n", name.c_str(), path.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSpec spec{{"model", FlagKind::kValue},
                {"models", FlagKind::kValue},
                {"host", FlagKind::kValue},
                {"port", FlagKind::kValue},
                {"queue-max", FlagKind::kValue},
                {"cache-cap", FlagKind::kValue},
                {"max-line-bytes", FlagKind::kValue},
                {"max-tokens", FlagKind::kValue},
                {"threads", FlagKind::kValue},
                {"metrics-port", FlagKind::kValue},
                {"trace-sample-rate", FlagKind::kValue},
                {"slow-request-us", FlagKind::kValue},
                {"help", FlagKind::kBool}};
  tools::AddObsFlags(&spec);
  Args args;
  if (!args.Parse(argc, argv, 1, spec)) {
    std::fprintf(stderr, "dlner_serve: %s\n", args.error().c_str());
    Usage();
    return 1;
  }
  if (args.Has("help")) {
    Usage();
    return 0;
  }
  if (!args.Has("model") && !args.Has("models")) {
    std::fprintf(stderr, "dlner_serve: --model or --models is required\n");
    Usage();
    return 1;
  }
  if (!tools::ApplyObsFlags(args) || !tools::ApplyThreadsFlag(args)) {
    return 1;
  }

  serve::ModelRegistry registry;
  if (args.Has("model") && !registry.Load("default", args.Get("model"))) {
    std::fprintf(stderr, "dlner_serve: cannot load model %s\n",
                 args.Get("model").c_str());
    return 1;
  }
  if (args.Has("models") && !LoadModels(args.Get("models"), &registry)) {
    return 1;
  }

  serve::ServeConfig config;
  config.host = args.Get("host", "127.0.0.1");
  config.port = args.GetInt("port", 0);
  config.queue_capacity = args.GetInt("queue-max", 256);
  config.cache_capacity = static_cast<std::size_t>(
      args.GetUInt64("cache-cap", 4096));
  config.max_line_bytes = static_cast<std::size_t>(
      args.GetUInt64("max-line-bytes", 1 << 20));
  config.max_tokens = args.GetInt("max-tokens", 512);
  config.metrics_port = args.GetInt("metrics-port", -1);
  config.trace_sample_rate = args.GetDouble("trace-sample-rate", 1.0);
  config.slow_request_us = args.GetInt("slow-request-us", 0);

  serve::Server server(&registry, config);
  if (!server.Start()) {
    std::fprintf(stderr, "dlner_serve: cannot bind %s:%d\n",
                 config.host.c_str(), config.port);
    return 1;
  }
  // The bound port on its own line so scripts (and perf/'s server
  // harness) can grab an ephemeral port from stdout.
  std::printf("listening on %s:%d\n", config.host.c_str(), server.port());
  if (server.metrics_port() > 0) {
    std::printf("metrics on %s:%d\n", config.host.c_str(),
                server.metrics_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  server.Wait(&g_interrupted);
  server.Stop();
  std::printf("served %lld responses (%lld rejected, %lld cache hits)\n",
              static_cast<long long>(server.responses_total()),
              static_cast<long long>(server.rejected_total()),
              static_cast<long long>(server.cache_hits()));

  server.PublishMetrics();
  return tools::FlushObsArtifacts(args) ? 0 : 1;
}
