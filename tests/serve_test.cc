// Tests for the serving subsystem (src/serve/): request framing, the LRU
// response cache, the hot-reloadable model registry, and end-to-end server
// behavior over real localhost sockets — malformed and oversized request
// lines, half-closed and abruptly-closed connections, queue-full
// backpressure, hot reload under load, and the bit-identity of cached and
// served responses with the `dlner tag` prediction path.
//
// Labeled `serve fuzz` in tests/CMakeLists.txt: the framing tests double as
// the deterministic fuzz slice for the line protocol, so the sanitizer CI
// preset runs them under asan.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/scenarios.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/entity_memory.h"

namespace dlner::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol framing

Request Parse(const std::string& line, bool* ok, std::string* error = nullptr,
              int* code = nullptr) {
  Request req;
  std::string err;
  int c = 0;
  *ok = ParseRequest(line, &req, &err, &c);
  if (error != nullptr) *error = err;
  if (code != nullptr) *code = c;
  return req;
}

TEST(ProtocolTest, ParsesTokensRequest) {
  bool ok = false;
  Request req =
      Parse(R"({"id":7,"model":"ner","tokens":["John","visited","Paris"]})",
            &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(req.kind, Request::Kind::kTag);
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 7);
  EXPECT_EQ(req.model, "ner");
  EXPECT_EQ(req.tokens,
            (std::vector<std::string>{"John", "visited", "Paris"}));
}

TEST(ProtocolTest, TextIsWhitespaceTokenized) {
  bool ok = false;
  Request req = Parse(R"({"text":"  John\tvisited \n Paris  "})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_FALSE(req.has_id);
  EXPECT_EQ(req.model, "default");
  EXPECT_EQ(req.tokens,
            (std::vector<std::string>{"John", "visited", "Paris"}));
}

TEST(ProtocolTest, UnicodeEscapesDecodeToUtf8) {
  bool ok = false;
  Request req = Parse(R"({"tokens":["Aé€"]})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(req.tokens[0], "A\xc3\xa9\xe2\x82\xac");
}

TEST(ProtocolTest, AdminRequests) {
  bool ok = false;
  Request req = Parse(R"({"cmd":"reload","model":"ner","path":"m.bin"})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(req.kind, Request::Kind::kAdmin);
  EXPECT_EQ(req.cmd, "reload");
  EXPECT_EQ(req.model, "ner");
  EXPECT_EQ(req.path, "m.bin");
  for (const char* cmd : {"models", "stats", "metrics", "shutdown"}) {
    req = Parse(std::string("{\"cmd\":\"") + cmd + "\"}", &ok);
    EXPECT_TRUE(ok) << cmd;
    EXPECT_EQ(req.cmd, cmd);
  }
}

struct BadLine {
  const char* line;
  const char* why;
};

// Every rejected shape must fail cleanly (no crash, error + 400), which is
// what the asan run of this slice checks.
TEST(ProtocolTest, RejectsMalformedLines) {
  const BadLine kBad[] = {
      {"", "empty line"},
      {"tag John", "not JSON"},
      {"{", "truncated object"},
      {R"({"id":1)", "unterminated object"},
      {R"({"id":1} extra)", "trailing bytes"},
      {R"({"id":1,"id":2,"text":"x"})", "duplicate field"},
      {R"({"id":"seven","text":"x"})", "string id"},
      {R"({"id":1.5,"text":"x"})", "double id"},
      {R"({"id":99999999999999999999,"text":"x"})", "overflow id"},
      {R"({"text":"x","tokens":["x"]})", "both text and tokens"},
      {R"({"id":1})", "neither text nor tokens"},
      {R"({"tokens":["ok",""]})", "empty token"},
      {R"({"tokens":[1,2]})", "non-string array"},
      {R"({"tokens":{"a":1}})", "nested object"},
      {R"({"text":"x","bogus":1})", "unknown field"},
      {R"({"model":"","text":"x"})", "empty model"},
      {R"({"model":7,"text":"x"})", "non-string model"},
      {R"({"cmd":"reload"})", "reload without path"},
      {R"({"cmd":"explode"})", "unknown cmd"},
      {R"({"text":"\x"})", "bad escape"},
      {"{\"text\":\"\\ud834\\udd1e\"}", "surrogate escape"},
      {R"({"text":"\u12"})", "truncated unicode escape"},
      {"{\"text\":\"a\x01y\"}", "raw control char"},
      {R"({"text":"unterminated)", "unterminated string"},
  };
  for (const BadLine& bad : kBad) {
    bool ok = true;
    std::string error;
    int code = 0;
    Parse(bad.line, &ok, &error, &code);
    EXPECT_FALSE(ok) << bad.why;
    EXPECT_EQ(code, kBadRequest) << bad.why;
    EXPECT_FALSE(error.empty()) << bad.why;
  }
}

TEST(ProtocolTest, DocFieldParsesAndDefaultsOff) {
  bool ok = false;
  Request req = Parse(R"({"doc":true,"tokens":["Li"]})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_TRUE(req.doc);
  req = Parse(R"({"doc":false,"tokens":["Li"]})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_FALSE(req.doc);
  req = Parse(R"({"tokens":["Li"]})", &ok);
  ASSERT_TRUE(ok);
  EXPECT_FALSE(req.doc);

  // Anything non-boolean is a 400, like every other typed field.
  for (const char* bad :
       {R"({"doc":1,"tokens":["Li"]})", R"({"doc":"yes","tokens":["Li"]})",
        R"({"doc":null,"tokens":["Li"]})"}) {
    std::string error;
    int code = 0;
    Parse(bad, &ok, &error, &code);
    EXPECT_FALSE(ok) << bad;
    EXPECT_EQ(code, kBadRequest) << bad;
  }
}

TEST(ProtocolTest, DocResponsesAreMarked) {
  Request req;
  req.has_id = true;
  req.id = 8;
  req.model = "ner";
  req.doc = true;
  const std::string payload = TagPayload({"Li"}, {{0, 1, "PER"}});
  EXPECT_EQ(TagResponse(req, false, payload),
            R"({"id":8,"model":"ner","cached":false,"doc":true,)" + payload +
                "}");
}

TEST(ProtocolTest, IdSurvivesSemanticErrors) {
  bool ok = true;
  Request req = Parse(R"({"id":42,"bogus":1,"text":"x"})", &ok);
  EXPECT_FALSE(ok);
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 42);
}

TEST(ProtocolTest, ResponseBuilders) {
  Request req;
  req.has_id = true;
  req.id = 3;
  req.model = "ner";
  const std::vector<std::string> tokens = {"Jo\"hn", "Paris"};
  const std::vector<text::Span> spans = {{1, 2, "LOC"}};
  const std::string payload = TagPayload(tokens, spans);
  EXPECT_EQ(payload,
            R"("tokens":["Jo\"hn","Paris"],"spans":[{"start":1,"end":2,"type":"LOC"}])");
  EXPECT_EQ(TagResponse(req, false, payload),
            R"({"id":3,"model":"ner","cached":false,)" + payload + "}");
  EXPECT_EQ(ErrorResponse(true, 3, kQueueFull, "queue full"),
            R"({"id":3,"error":{"code":429,"message":"queue full"}})");
  EXPECT_EQ(ErrorResponse(false, 0, kBadRequest, "bad"),
            R"({"error":{"code":400,"message":"bad"}})");
  EXPECT_EQ(JsonQuote("a\nb\x01"), "\"a\\nb\\u0001\"");
  // Every control byte, the two escaped printables, DEL and a multibyte
  // UTF-8 token: only \t \n \r get short escapes, DEL and UTF-8 pass
  // through raw.
  std::string all_escapes;
  for (int c = 0; c < 0x20; ++c) all_escapes.push_back(static_cast<char>(c));
  all_escapes += "\"\\\x7f\xc3\xa9\xe2\x82\xac";
  EXPECT_EQ(JsonQuote(all_escapes),
            std::string(R"("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
                        R"(\u0008\t\n\u000b\u000c\r\u000e\u000f)"
                        R"(\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
                        R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)"
                        R"(\"\\)") +
                "\x7f\xc3\xa9\xe2\x82\xac\"");
}

// Parse -> rebuild -> reparse for a round-trip-able subset; the asan CI run
// of this test is the line-protocol fuzz pass.
TEST(ProtocolTest, QuoteParseRoundTrip) {
  const std::vector<std::string> nasty = {
      "plain", "sp ace", "q\"uote", "back\\slash", "new\nline", "tab\tchar",
      "\xc3\xa9\xe2\x82\xac utf8", std::string("ctrl\x02x"),
  };
  for (const std::string& tok : nasty) {
    bool ok = false;
    Request req = Parse("{\"tokens\":[" + JsonQuote(tok) + "]}", &ok);
    ASSERT_TRUE(ok) << JsonQuote(tok);
    ASSERT_EQ(req.tokens.size(), 1u);
    EXPECT_EQ(req.tokens[0], tok);
  }
}

// ---------------------------------------------------------------------------
// LRU response cache

TEST(CacheTest, KeySeparatesTokenBoundaries) {
  EXPECT_NE(LruCache::Key("m", 1, {"ab", "c"}), LruCache::Key("m", 1, {"a", "bc"}));
  EXPECT_NE(LruCache::Key("m", 1, {"a"}), LruCache::Key("m", 2, {"a"}));
  EXPECT_NE(LruCache::Key("m", 1, {"a"}), LruCache::Key("n", 1, {"a"}));
  EXPECT_EQ(LruCache::Key("m", 1, {"a", "b"}), LruCache::Key("m", 1, {"a", "b"}));
}

TEST(CacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  std::string v;
  ASSERT_TRUE(cache.Get("a", &v));  // promotes "a"
  cache.Put("c", "3");              // evicts "b"
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, "1");
  EXPECT_FALSE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("c", &v));
}

TEST(CacheTest, PutRefreshesExistingEntry) {
  LruCache cache(2);
  cache.Put("a", "1");
  cache.Put("a", "updated");
  std::string v;
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, "updated");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheTest, CapacityZeroDisables) {
  LruCache cache(0);
  cache.Put("a", "1");
  std::string v;
  EXPECT_FALSE(cache.Get("a", &v));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Shared fixture: two tiny trained checkpoints (different seeds)

struct Models {
  std::string path1;
  std::string path2;
  std::unique_ptr<core::Pipeline> pipeline1;  // loaded from path1
  std::unique_ptr<core::Pipeline> pipeline2;  // loaded from path2
  text::Corpus corpus;
};

const Models& Fixture() {
  static Models* models = [] {
    auto* m = new Models;
    data::GenOptions opts;
    opts.num_sentences = 40;
    opts.seed = 11;
    m->corpus = data::GenerateCorpus(data::Genre::kNews, opts);
    core::NerConfig config;
    config.encoder = "cnn";
    config.decoder = "softmax";
    config.word_dim = 12;
    config.hidden_dim = 10;
    config.seed = 5;
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.lr = 0.02;
    const auto types = data::EntityTypesFor(data::Genre::kNews);
    // Per-process names: ctest -j runs each test in its own process, and a
    // reload must never read a checkpoint another process is rewriting.
    const std::string dir =
        ::testing::TempDir() + "/serve_" + std::to_string(::getpid());
    m->path1 = dir + "_model1.bin";
    m->path2 = dir + "_model2.bin";
    core::Pipeline::Train(config, tc, m->corpus, nullptr, types)
        ->Save(m->path1);
    config.seed = 99;
    core::Pipeline::Train(config, tc, m->corpus, nullptr, types)
        ->Save(m->path2);
    // Expected predictions come from re-loaded pipelines so any save/load
    // effects match what the server sees exactly.
    m->pipeline1 = core::Pipeline::Load(m->path1);
    m->pipeline2 = core::Pipeline::Load(m->path2);
    return m;
  }();
  return *models;
}

// ---------------------------------------------------------------------------
// Model registry

TEST(RegistryTest, LoadAndGenerations) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Get("ner").pipeline, nullptr);
  EXPECT_FALSE(registry.Load("ner", "/nonexistent/model.bin"));
  EXPECT_EQ(registry.Get("ner").pipeline, nullptr);

  ASSERT_TRUE(registry.Load("ner", Fixture().path1));
  ModelRegistry::Entry e1 = registry.Get("ner");
  ASSERT_NE(e1.pipeline, nullptr);
  EXPECT_EQ(e1.generation, 1u);

  // A failed reload leaves the previous model serving.
  EXPECT_FALSE(registry.Load("ner", "/nonexistent/model.bin"));
  EXPECT_EQ(registry.Get("ner").pipeline, e1.pipeline);
  EXPECT_EQ(registry.Get("ner").generation, 1u);

  ASSERT_TRUE(registry.Load("ner", Fixture().path2));
  ModelRegistry::Entry e2 = registry.Get("ner");
  EXPECT_NE(e2.pipeline, e1.pipeline);
  EXPECT_EQ(e2.generation, 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"ner"}));

  // The old shared_ptr keeps the evicted pipeline usable (what keeps
  // in-flight batches safe across a hot reload).
  EXPECT_NO_THROW(e1.pipeline->Tag({"John", "visited", "Paris"}));
}

// ---------------------------------------------------------------------------
// End-to-end server tests

// Minimal blocking NDJSON client over a real socket.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{20, 0};  // generous: CI runs this under asan on one core
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool SendRaw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool SendLine(const std::string& line) { return SendRaw(line + "\n"); }

  // Half-closes the write side; the server must still deliver responses.
  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

  // Next response line (without the newline); "" on EOF/timeout.
  std::string ReadLine() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

std::string TokensRequest(std::int64_t id,
                          const std::vector<std::string>& tokens,
                          const std::string& model = "") {
  std::string s = "{\"id\":" + std::to_string(id);
  if (!model.empty()) s += ",\"model\":" + JsonQuote(model);
  s += ",\"tokens\":[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) s.push_back(',');
    s += JsonQuote(tokens[i]);
  }
  return s + "]}";
}

// The exact line the server must emit for a tagging request.
std::string ExpectedLine(std::int64_t id, const std::string& model,
                         bool cached, const std::vector<std::string>& tokens,
                         const std::vector<text::Span>& spans) {
  Request req;
  req.has_id = true;
  req.id = id;
  req.model = model;
  return TagResponse(req, cached, TagPayload(tokens, spans));
}

int ErrorCodeOf(const std::string& line) {
  const std::size_t pos = line.find("\"code\":");
  if (pos == std::string::npos) return -1;
  return std::atoi(line.c_str() + pos + 7);
}

TEST(ServerTest, ServedResponsesMatchTagCorpusBitIdentically) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.cache_capacity = 0;  // exercise the uncached batch path
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());
  ASSERT_GT(server.port(), 0);

  // Expected spans from the exact prediction path `dlner tag` uses.
  text::Corpus subset;
  for (int i = 0; i < 12; ++i) {
    subset.sentences.push_back(m.corpus.sentences[i]);
  }
  const std::vector<std::vector<text::Span>> expected =
      m.pipeline1->TagCorpus(subset);

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < subset.size(); ++i) {
    ASSERT_TRUE(client.SendLine(TokensRequest(i, subset.sentences[i].tokens)));
  }
  // Responses may arrive out of order (micro-batching); index by id.
  std::vector<std::string> got(subset.sentences.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty());
    const std::size_t id_pos = line.find("\"id\":");
    ASSERT_NE(id_pos, std::string::npos) << line;
    const int id = std::atoi(line.c_str() + id_pos + 5);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, static_cast<int>(got.size()));
    got[id] = line;
  }
  for (int i = 0; i < subset.size(); ++i) {
    EXPECT_EQ(got[i], ExpectedLine(i, "default", false,
                                   subset.sentences[i].tokens, expected[i]));
  }
  EXPECT_EQ(server.responses_total(), subset.size());
  EXPECT_EQ(server.errors_total(), 0);
  server.Stop();
}

TEST(ServerTest, CacheHitIsBitIdenticalAndMarked) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  const std::vector<std::string>& tokens = m.corpus.sentences[0].tokens;
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine(TokensRequest(1, tokens)));
  const std::string first = client.ReadLine();
  ASSERT_TRUE(client.SendLine(TokensRequest(2, tokens)));
  const std::string second = client.ReadLine();

  const std::vector<text::Span> spans = m.pipeline1->Tag(tokens);
  EXPECT_EQ(first, ExpectedLine(1, "default", false, tokens, spans));
  EXPECT_EQ(second, ExpectedLine(2, "default", true, tokens, spans));
  EXPECT_EQ(server.cache_hits(), 1);
  EXPECT_EQ(server.cache_misses(), 1);
  server.Stop();
}

TEST(ServerTest, MalformedAndOversizedLinesKeepConnectionAlive) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.max_line_bytes = 256;
  config.max_tokens = 8;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());

  // Malformed JSON -> 400, connection survives.
  ASSERT_TRUE(client.SendLine("this is not json"));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kBadRequest);

  // Oversized line -> 413 and the rest of the line is discarded.
  ASSERT_TRUE(client.SendLine(
      "{\"id\":1,\"text\":\"" + std::string(4096, 'x') + "\"}"));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kTooLarge);

  // Too many tokens -> 413.
  ASSERT_TRUE(client.SendLine(
      TokensRequest(2, std::vector<std::string>(9, "tok"))));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kTooLarge);

  // Unknown model -> 404.
  ASSERT_TRUE(client.SendLine(TokensRequest(3, {"John"}, "nope")));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kUnknownModel);

  // Tokenless request -> inline empty payload, no batch involved.
  ASSERT_TRUE(client.SendLine(R"({"id":4,"text":"   "})"));
  EXPECT_EQ(client.ReadLine(), ExpectedLine(4, "default", false, {}, {}));

  // After all of the above the same connection still serves real work
  // (kept under this server's max_tokens = 8).
  const std::vector<std::string> tokens = {"John", "visited", "Paris", "."};
  ASSERT_TRUE(client.SendLine(TokensRequest(5, tokens)));
  EXPECT_EQ(client.ReadLine(),
            ExpectedLine(5, "default", false, tokens, m.pipeline1->Tag(tokens)));
  server.Stop();
}

// `n` tokens drawn in order from the corpus. A head request of
// kLongHeadTokens computes for milliseconds (several scheduler slices), so
// the lines written right behind it in the same write are admitted while
// the batcher is still busy with it, even on a loaded host.
constexpr int kLongHeadTokens = 16384;
std::vector<std::string> LongSentence(const text::Corpus& corpus, int n) {
  std::vector<std::string> tokens;
  for (std::size_t s = 0; static_cast<int>(tokens.size()) < n; ++s) {
    for (const std::string& token :
         corpus.sentences[s % corpus.sentences.size()].tokens) {
      if (static_cast<int>(tokens.size()) == n) break;
      tokens.push_back(token);
    }
  }
  return tokens;
}

TEST(ServerTest, QueueFullRejectsWith429ThenRecovers) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.queue_capacity = 1;
  config.cache_capacity = 0;
  config.max_tokens = kLongHeadTokens;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  // One write: a max_tokens head request, then the probes. While the head
  // computes, the first probe takes the only queue slot and the rest race
  // that compute, so (nearly) all of them must be rejected immediately.
  // The cache is off, so no probe short-circuits through the cache path.
  const std::vector<std::string> head =
      LongSentence(m.corpus, config.max_tokens);
  std::string bytes = TokensRequest(0, head) + "\n";
  const int kProbes = 12;
  for (int i = 0; i < kProbes; ++i) {
    bytes += TokensRequest(100 + i, m.corpus.sentences[1].tokens) + "\n";
  }
  ASSERT_TRUE(client.SendRaw(bytes));
  // Read everything back: one eventual success for id 0, and each probe
  // either succeeded (queue had drained) or got a 429.
  int rejected = 0;
  std::vector<std::string> lines;
  for (int i = 0; i < kProbes + 1; ++i) {
    const std::string line = client.ReadLine();
    ASSERT_FALSE(line.empty());
    lines.push_back(line);
    if (ErrorCodeOf(line) == kQueueFull) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(server.rejected_total(), rejected);
  // The head request was answered correctly despite the rejections.
  const std::string expected0 =
      ExpectedLine(0, "default", false, head, m.pipeline1->Tag(head));
  bool saw_head = false;
  for (const std::string& line : lines) {
    if (line == expected0) saw_head = true;
  }
  EXPECT_TRUE(saw_head);
  server.Stop();
}

TEST(ServerTest, HotReloadUnderLoadNeverDropsRequests) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.cache_capacity = 0;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());
  const int port = server.port();

  // Hammer the server from a background connection while the reload lands.
  std::atomic<bool> stop{false};
  std::atomic<int> sent{0};
  std::atomic<int> received{0};
  std::atomic<int> bad{0};
  std::thread hammer([&] {
    TestClient client(port);
    if (!client.ok()) {
      bad.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      const int id = sent.fetch_add(1);
      const auto& tokens =
          m.corpus.sentences[id % m.corpus.size()].tokens;
      if (!client.SendLine(TokensRequest(id, tokens))) break;
      const std::string line = client.ReadLine();
      if (line.empty() || line.find("\"error\"") != std::string::npos) {
        bad.fetch_add(1);
        break;
      }
      received.fetch_add(1);
    }
  });

  TestClient admin(port);
  ASSERT_TRUE(admin.ok());
  // Reload only once traffic flows: on a busy host the hammer thread can
  // otherwise start after every reload has already landed.
  for (int i = 0; i < 5000 && received.load() == 0 && bad.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string reload_ack;
  for (int i = 0; i < 3; ++i) {  // several reloads while traffic flows
    const std::string& path = (i % 2 == 0) ? m.path2 : m.path1;
    ASSERT_TRUE(admin.SendLine(
        R"({"cmd":"reload","model":"default","path":)" + JsonQuote(path) +
        "}"));
    reload_ack = admin.ReadLine();
    ASSERT_NE(reload_ack.find("\"ok\":true"), std::string::npos)
        << reload_ack;
  }
  stop.store(true);
  hammer.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(received.load(), 0);
  // Last reload installed model1 again at generation 3.
  EXPECT_NE(reload_ack.find("\"generation\":4"), std::string::npos)
      << reload_ack;

  // Post-reload traffic is served by the newly-installed checkpoint.
  ASSERT_TRUE(registry.Load("default", m.path2));
  const std::vector<std::string>& tokens = m.corpus.sentences[2].tokens;
  TestClient client(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine(TokensRequest(9, tokens)));
  EXPECT_EQ(client.ReadLine(),
            ExpectedLine(9, "default", false, tokens, m.pipeline2->Tag(tokens)));

  // A reload from a bad path answers 500 and keeps the old model serving.
  ASSERT_TRUE(admin.SendLine(
      R"({"cmd":"reload","model":"default","path":"/nonexistent.bin"})"));
  EXPECT_EQ(ErrorCodeOf(admin.ReadLine()), kInternal);
  ASSERT_TRUE(client.SendLine(TokensRequest(10, tokens)));
  EXPECT_EQ(client.ReadLine(),
            ExpectedLine(10, "default", false, tokens,
                         m.pipeline2->Tag(tokens)));
  server.Stop();
}

// VmSize of this process in kB, from /proc/self/status (-1 if unreadable).
long VmSizeKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::atol(line.c_str() + 7);
  }
  return -1;
}

// A reader thread that is never joined keeps its stack mapped, so a server
// that only joins readers in Stop() grows by one stack per connection it
// has ever seen. Reaped readers hand their stacks back for reuse.
TEST(ServerTest, SequentialConnectionsDoNotAccumulateReaderStacks) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  pthread_attr_t attr;
  ASSERT_EQ(pthread_getattr_default_np(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const long stack_kb = static_cast<long>(stack_bytes / 1024);
  ASSERT_GT(stack_kb, 0);

  const std::vector<std::string>& tokens = m.corpus.sentences[2].tokens;
  const std::string expected_tail =
      TagPayload(tokens, m.pipeline1->Tag(tokens)) + "}";
  constexpr int kWarmup = 10;
  constexpr int kCycles = 200;
  long vm_after_warmup = -1;
  for (int i = 0; i < kCycles; ++i) {
    if (i == kWarmup) vm_after_warmup = VmSizeKb();
    TestClient client(server.port());
    ASSERT_TRUE(client.ok()) << "cycle " << i;
    ASSERT_TRUE(client.SendLine(TokensRequest(i, tokens)));
    const std::string line = client.ReadLine();
    ASSERT_GE(line.size(), expected_tail.size()) << "cycle " << i;
    EXPECT_EQ(line.substr(line.size() - expected_tail.size()), expected_tail);
  }  // each client closes here; its reader sees EOF and returns
  const long vm_end = VmSizeKb();
  ASSERT_GT(vm_after_warmup, 0);
  // Unreaped, the 190 post-warmup readers would add 190 stacks; allow a
  // few dozen for readers still exiting and allocator noise.
  EXPECT_LT(vm_end - vm_after_warmup, 32 * stack_kb)
      << "VmSize grew " << (vm_end - vm_after_warmup) << " kB over "
      << (kCycles - kWarmup) << " connections (stack " << stack_kb << " kB)";
  EXPECT_EQ(server.responses_total(), kCycles);
  server.Stop();
}

TEST(ServerTest, HalfClosedSocketStillReceivesResponse) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  const std::vector<std::string>& tokens = m.corpus.sentences[3].tokens;
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine(TokensRequest(1, tokens)));
  client.CloseWrite();  // half-close: we will never send again
  EXPECT_EQ(client.ReadLine(),
            ExpectedLine(1, "default", false, tokens, m.pipeline1->Tag(tokens)));

  // An abrupt full close right after a request must not take the server
  // down; a fresh connection still works.
  {
    TestClient rude(server.port());
    ASSERT_TRUE(rude.ok());
    ASSERT_TRUE(rude.SendLine(TokensRequest(2, tokens)));
  }  // destructor closes the socket with the response possibly in flight
  TestClient after(server.port());
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(after.SendLine(TokensRequest(3, tokens)));
  EXPECT_EQ(after.ReadLine(),
            ExpectedLine(3, "default", true, tokens, m.pipeline1->Tag(tokens)));
  server.Stop();
}

// ---------------------------------------------------------------------------
// Document-mode requests ({"doc":true}): the connection is the document.
// Per-connection entity memory folds earlier responses into later ones, doc
// responses bypass the LRU cache in both directions, and a hot reload swaps
// the model without touching the connection's document state.

struct DocModels {
  std::string path1;
  std::string path2;
  std::unique_ptr<core::Pipeline> pipeline1;
  std::unique_ptr<core::Pipeline> pipeline2;
  text::Corpus docs;  // entity-consistency documents (Corpus::doc_starts)
};

const DocModels& DocFixture() {
  static DocModels* models = [] {
    auto* m = new DocModels;
    data::ScenarioOptions opts;
    opts.seed = 41;
    opts.num_sentences = 60;
    const data::ScenarioSplit split =
        data::MakeScenarioSplit(data::Scenario::kEntityConsistency, opts);
    m->docs = split.test;
    core::NerConfig config;
    config.encoder = "cnn";
    config.decoder = "softmax";
    config.word_dim = 12;
    config.hidden_dim = 12;
    config.word_unk_dropout = 0.2;
    config.seed = 7;
    core::TrainConfig tc;
    tc.epochs = 4;
    tc.lr = 0.02;
    const auto types =
        data::ScenarioEntityTypes(data::Scenario::kEntityConsistency);
    // Per-process names, as in Fixture(): the two doc tests run in
    // parallel processes under ctest -j, and a Load must never read a
    // checkpoint the other process is rewriting.
    const std::string dir =
        ::testing::TempDir() + "/serve_doc_" + std::to_string(::getpid());
    m->path1 = dir + "_model1.bin";
    m->path2 = dir + "_model2.bin";
    core::Pipeline::Train(config, tc, split.train, nullptr, types)
        ->Save(m->path1);
    config.seed = 23;
    core::Pipeline::Train(config, tc, split.train, nullptr, types)
        ->Save(m->path2);
    m->pipeline1 = core::Pipeline::Load(m->path1);
    m->pipeline2 = core::Pipeline::Load(m->path2);
    return m;
  }();
  return *models;
}

std::string DocRequest(std::int64_t id,
                       const std::vector<std::string>& tokens) {
  std::string s = "{\"id\":" + std::to_string(id) + ",\"doc\":true,\"tokens\":[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) s.push_back(',');
    s += JsonQuote(tokens[i]);
  }
  return s + "]}";
}

std::string ExpectedDocLine(std::int64_t id,
                            const std::vector<std::string>& tokens,
                            const std::vector<text::Span>& spans) {
  Request req;
  req.has_id = true;
  req.id = id;
  req.model = "default";
  req.doc = true;
  return TagResponse(req, false, TagPayload(tokens, spans));
}

TEST(ServerTest, DocRequestsFoldEntityMemoryPerConnection) {
  const DocModels& m = DocFixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;  // cache ON: doc responses must bypass it anyway
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  // Every doc response must be byte-identical to the reference fold: tag the
  // sentence, Apply the connection's memory, Observe the result — strictly
  // in arrival order. Across the fixture's documents the memory must change
  // at least one sentence vs. stateless tagging (that is the point of the
  // feature: a later mention of a remembered surface gets recovered).
  bool memory_changed_something = false;
  for (int d = 0; d < m.docs.DocCount(); ++d) {
    const auto [first, last] = m.docs.DocRange(d);
    TestClient client(server.port());  // fresh connection = fresh document
    ASSERT_TRUE(client.ok());
    stream::EntityMemory memory;
    for (int i = first; i < last; ++i) {
      const std::vector<std::string>& tokens =
          m.docs.sentences[static_cast<size_t>(i)].tokens;
      std::vector<text::Span> expected = m.pipeline1->Tag(tokens);
      const std::vector<text::Span> stateless = expected;
      memory.Apply(tokens, &expected);
      memory.Observe(tokens, expected);
      if (expected != stateless) memory_changed_something = true;
      ASSERT_TRUE(client.SendLine(DocRequest(i, tokens)));
      EXPECT_EQ(client.ReadLine(), ExpectedDocLine(i, tokens, expected))
          << "doc " << d << " sentence " << i;
    }
  }
  EXPECT_TRUE(memory_changed_something)
      << "entity memory never altered a sentence; the differential is vacuous";

  // Identical doc requests stay cache-misses ("cached":false above checks
  // the read side; repeating a sentence checks the write side too).
  const auto [first, last] = m.docs.DocRange(0);
  const std::vector<std::string>& tokens =
      m.docs.sentences[static_cast<size_t>(first)].tokens;
  TestClient repeat(server.port());
  ASSERT_TRUE(repeat.ok());
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(repeat.SendLine(DocRequest(pass, tokens)));
    const std::string line = repeat.ReadLine();
    EXPECT_NE(line.find("\"cached\":false"), std::string::npos) << line;
    EXPECT_NE(line.find("\"doc\":true"), std::string::npos) << line;
  }

  // Malformed doc field over the wire: 400, connection survives.
  ASSERT_TRUE(repeat.SendLine(R"({"id":9,"doc":1,"tokens":["Li"]})"));
  EXPECT_EQ(ErrorCodeOf(repeat.ReadLine()), kBadRequest);
  ASSERT_TRUE(repeat.SendLine(DocRequest(10, tokens)));
  EXPECT_NE(repeat.ReadLine().find("\"doc\":true"), std::string::npos);
  server.Stop();
}

TEST(ServerTest, HotReloadMidDocumentKeepsConnectionState) {
  const DocModels& m = DocFixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  const auto [first, last] = m.docs.DocRange(0);
  ASSERT_GE(last - first, 2);
  const std::vector<std::string>& s0 =
      m.docs.sentences[static_cast<size_t>(first)].tokens;
  const std::vector<std::string>& s1 =
      m.docs.sentences[static_cast<size_t>(first + 1)].tokens;

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  stream::EntityMemory memory;

  // First sentence tagged by model 1 and observed into the connection.
  std::vector<text::Span> expected0 = m.pipeline1->Tag(s0);
  memory.Apply(s0, &expected0);
  memory.Observe(s0, expected0);
  ASSERT_TRUE(client.SendLine(DocRequest(0, s0)));
  ASSERT_EQ(client.ReadLine(), ExpectedDocLine(0, s0, expected0));

  // Hot reload swaps in model 2 mid-document.
  TestClient admin(server.port());
  ASSERT_TRUE(admin.ok());
  ASSERT_TRUE(admin.SendLine(
      R"({"cmd":"reload","model":"default","path":)" + JsonQuote(m.path2) +
      "}"));
  ASSERT_NE(admin.ReadLine().find("\"ok\":true"), std::string::npos);

  // Second sentence: model 2 tags it, but the votes collected from model 1's
  // output must still apply — the document belongs to the connection, not to
  // the model generation.
  std::vector<text::Span> expected1 = m.pipeline2->Tag(s1);
  memory.Apply(s1, &expected1);
  memory.Observe(s1, expected1);
  ASSERT_TRUE(client.SendLine(DocRequest(1, s1)));
  EXPECT_EQ(client.ReadLine(), ExpectedDocLine(1, s1, expected1));
  server.Stop();
}

TEST(ServerTest, AdminModelsStatsAndShutdown) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ASSERT_TRUE(registry.Load("alt", m.path2));
  ServeConfig config;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine(R"({"cmd":"models"})"));
  EXPECT_EQ(client.ReadLine(), R"({"models":["alt","default"]})");

  ASSERT_TRUE(client.SendLine(TokensRequest(1, m.corpus.sentences[0].tokens,
                                            "alt")));
  ASSERT_FALSE(client.ReadLine().empty());

  ASSERT_TRUE(client.SendLine(R"({"cmd":"stats"})"));
  const std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("\"responses\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests\":"), std::string::npos) << stats;

  // {"cmd":"shutdown"} acks, then wakes a blocked Wait().
  std::atomic<bool> wait_returned{false};
  std::thread waiter([&] {
    server.Wait();
    wait_returned.store(true);
  });
  ASSERT_TRUE(client.SendLine(R"({"cmd":"shutdown"})"));
  EXPECT_EQ(client.ReadLine(), R"({"ok":true})");
  waiter.join();
  EXPECT_TRUE(wait_returned.load());
  server.Stop();

  // A stopped server refuses new connections.
  TestClient late(server.port());
  if (late.ok()) {
    late.SendLine(TokensRequest(1, {"x"}));
    EXPECT_TRUE(late.ReadLine().empty());
  }
}

// ---------------------------------------------------------------------------
// Live serving observability: lifetime counts in `stats`, the `metrics` admin
// command, the --metrics-port Prometheus scrape, and request-scoped stage
// tracing. These tests also double as the "collection on does not change the
// served bytes" differential for the serve path.

// The 64-bit request id a serve span's args carry, or -1.
std::int64_t ArgsReqId(const std::string& args) {
  const std::size_t pos = args.find("\"req\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(args.c_str() + pos + 6);
}

// Blocking HTTP GET against the metrics listener; returns the full response
// (status line + headers + body) read to EOF.
std::string HttpGet(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  timeval tv{20, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// Calls `read` until its text contains `needle`, for up to five seconds,
// and returns the last text. A served request's latency and stage
// instruments are recorded just after its response is written, so a check
// made right after the client reads that response waits for them to land.
std::string ReadUntilContains(const std::function<std::string()>& read,
                              const std::string& needle) {
  std::string text = read();
  for (int i = 0; i < 500 && text.find(needle) == std::string::npos; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    text = read();
  }
  return text;
}

TEST(ServerTest, AdminStatsWindowBlockAndMetricsCommand) {
  // `stats` answers the lifetime counts and the queue depth, and they match
  // the counters the `metrics` command exports.
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.slow_request_us = 1;  // everything is "slow": exercises the log
  Server server(&registry, config);
  obs::Metrics::Get().ResetAll();
  obs::EnableMetrics(true);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  const std::vector<std::string>& tokens = m.corpus.sentences[5].tokens;
  ASSERT_TRUE(client.SendLine(TokensRequest(1, tokens)));
  ASSERT_FALSE(client.ReadLine().empty());
  ASSERT_TRUE(client.SendLine(TokensRequest(2, tokens)));  // cache hit
  ASSERT_FALSE(client.ReadLine().empty());

  // Three lines read (the stats command counts itself), one batch for the
  // miss; the hit is answered inline.
  ASSERT_TRUE(client.SendLine(R"({"cmd":"stats"})"));
  EXPECT_EQ(client.ReadLine(),
            "{\"requests\":3,\"responses\":2,\"rejected\":0,\"errors\":0,"
            "\"cache_hits\":1,\"cache_misses\":1,\"batches\":1,"
            "\"queue_depth\":0}");

  // The metrics command carries the Prometheus exposition as a JSON string
  // (same bytes the --metrics-port scrape serves). The slow-request count
  // is the last thing a request records, so waiting for it waits for both
  // requests' latency observations too.
  const std::string metrics = ReadUntilContains(
      [&] {
        client.SendLine(R"({"cmd":"metrics"})");
        return client.ReadLine();
      },
      "serve_slow_requests_total 2");
  EXPECT_NE(metrics.find("\"metrics\":\""), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("# TYPE serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_request_latency_us_count 2"),
            std::string::npos);
  EXPECT_NE(metrics.find("serve_responses_total 2"), std::string::npos);
  EXPECT_NE(metrics.find("serve_cache_hits 1"), std::string::npos);
  EXPECT_EQ(metrics.find("window"), std::string::npos);

  server.PublishMetrics();
  obs::Metrics& reg = obs::Metrics::Get();
  EXPECT_GE(reg.counter("serve.slow_requests_total")->value(), 2);
  EXPECT_DOUBLE_EQ(reg.gauge("serve.queue.depth")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("serve.cache.size")->value(), 1.0);
  server.Stop();
  obs::EnableMetrics(false);
  reg.ResetAll();
}

TEST(ServerTest, MetricsPortServesPrometheusScrape) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.metrics_port = 0;  // ephemeral; also turns collection always-on
  Server server(&registry, config);
  obs::Metrics::Get().ResetAll();
  ASSERT_TRUE(server.Start());
  ASSERT_GT(server.metrics_port(), 0);
  EXPECT_NE(server.metrics_port(), server.port());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine(TokensRequest(1, m.corpus.sentences[6].tokens)));
  ASSERT_FALSE(client.ReadLine().empty());

  const std::string scrape = ReadUntilContains(
      [&] { return HttpGet(server.metrics_port()); },
      "serve_request_latency_us_count 1");
  EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("text/plain; version=0.0.4"), std::string::npos);
  const std::size_t header_end = scrape.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos) << scrape;
  const std::string body = scrape.substr(header_end + 4);

  // Content-Length matches the body byte-for-byte (HTTP/1.0 clients rely
  // on it even though we also close the connection).
  const std::size_t cl_pos = scrape.find("Content-Length: ");
  ASSERT_NE(cl_pos, std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::atoll(scrape.c_str() + cl_pos + 16)),
            body.size());

  EXPECT_NE(body.find("# TYPE serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_count 1"), std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_queue_depth gauge"), std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_batch_size histogram"), std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_model_default_requests_total counter\n"
                      "serve_model_default_requests_total 1"),
            std::string::npos);

  // The listener survives repeated polls.
  EXPECT_NE(HttpGet(server.metrics_port()).find("200 OK"), std::string::npos);
  server.Stop();
  obs::Metrics::Get().ResetAll();
}

// The integer after `key` in `text` at or after `from`, or -1.
std::int64_t IntAfter(const std::string& text, const std::string& key,
                      std::size_t from = 0) {
  const std::size_t pos = text.find(key, from);
  if (pos == std::string::npos) return -1;
  return std::atoll(text.c_str() + pos + key.size());
}

// The HTTP body of a scrape of `server`'s metrics port.
std::string ScrapeBody(const Server& server) {
  const std::string scrape = HttpGet(server.metrics_port());
  const std::size_t header_end = scrape.find("\r\n\r\n");
  return header_end == std::string::npos ? ""
                                         : scrape.substr(header_end + 4);
}

TEST(ServerTest, ErrorCountsAgreeAcrossStatsWindowAndScrape) {
  // Every error path records through one instrument, so the count in stats
  // and the scraped counter agree: a parse error, an oversized line and a
  // failed reload are three errors in each view.
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.max_line_bytes = 256;
  config.metrics_port = 0;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendLine("this is not json"));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kBadRequest);
  ASSERT_TRUE(client.SendLine(
      "{\"id\":1,\"text\":\"" + std::string(4096, 'x') + "\"}"));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kTooLarge);
  ASSERT_TRUE(client.SendLine(
      R"({"cmd":"reload","model":"default","path":"/nonexistent.bin"})"));
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), kInternal);

  ASSERT_TRUE(client.SendLine(R"({"cmd":"stats"})"));
  const std::string stats = client.ReadLine();
  EXPECT_EQ(IntAfter(stats, "\"errors\":"), 3) << stats;
  EXPECT_EQ(IntAfter(ScrapeBody(server), "\nserve_errors_total "), 3);
  EXPECT_EQ(server.errors_total(), 3);
  server.Stop();
}

TEST(ServerTest, ScrapeKeepsEverySeriesAndCountsAreCounters) {
  // Golden: every serve/trace metric family the scrape exposed before the
  // serve counts became registry counters, with its TYPE, less the two
  // batch flush counters that went away with the batch deadline and the 23
  // rolling-window families that went away with the in-process windows,
  // plus the per-model request counter that replaced the rolling one. Only
  // the nine monotone counts changed TYPE (gauge -> counter).
  const std::set<std::string> counts = {
      "serve_requests_total",        "serve_responses_total",
      "serve_rejected_total",        "serve_errors_total",
      "serve_cache_hits",            "serve_cache_misses",
      "serve_batches_total",         "serve_reloads_total",
      "serve_slow_requests_total"};
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"serve_batch_size", "histogram"},
      {"serve_batches_total", "gauge"},
      {"serve_cache_hits", "gauge"},
      {"serve_cache_misses", "gauge"},
      {"serve_cache_size", "gauge"},
      {"serve_errors_total", "gauge"},
      {"serve_model_default_requests_total", "counter"},
      {"serve_queue_depth", "gauge"},
      {"serve_queue_peak_depth", "gauge"},
      {"serve_rejected_total", "gauge"},
      {"serve_reloads_total", "gauge"},
      {"serve_request_latency_us", "histogram"},
      {"serve_requests_total", "gauge"},
      {"serve_responses_total", "gauge"},
      {"serve_slow_requests_total", "gauge"},
      {"serve_stage_batch_wait_us", "histogram"},
      {"serve_stage_compute_us", "histogram"},
      {"serve_stage_queue_wait_us", "histogram"},
      {"serve_stage_write_us", "histogram"},
      {"trace_dropped_spans", "counter"},
      {"trace_recorded_spans", "counter"}};

  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.metrics_port = 0;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  const std::vector<std::string>& tokens = m.corpus.sentences[7].tokens;
  ASSERT_TRUE(client.SendLine(TokensRequest(1, tokens)));
  ASSERT_FALSE(client.ReadLine().empty());
  ASSERT_TRUE(client.SendLine(TokensRequest(2, tokens)));  // cache hit
  ASSERT_FALSE(client.ReadLine().empty());

  const std::string body = ScrapeBody(server);
  std::map<std::string, std::string> types;  // family -> TYPE
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::size_t space = line.rfind(' ');
    types[line.substr(7, space - 7)] = line.substr(space + 1);
  }
  for (const auto& [name, type] : golden) {
    const std::string want = counts.count(name) > 0 ? "counter" : type;
    ASSERT_EQ(types.count(name), 1u) << "scrape lost " << name;
    EXPECT_EQ(types[name], want) << name;
  }
  EXPECT_EQ(body.find("window"), std::string::npos);
  EXPECT_EQ(IntAfter(body, "\nserve_responses_total "), 2);
  EXPECT_EQ(IntAfter(body, "\nserve_cache_hits "), 1);
  server.Stop();
}

// Cumulative count of a scraped histogram family's observations at or
// under `bound`: the last emitted `le` line not above it (the exposition
// lists only occupied buckets, in increasing order), or 0.
std::int64_t BucketCountAtOrBelow(const std::string& body,
                                  const std::string& family, double bound) {
  const std::string prefix = family + "_bucket{le=\"";
  std::int64_t count = 0;
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string le =
        line.substr(prefix.size(), line.find('"', prefix.size()) -
                                       prefix.size());
    if (le == "+Inf" || std::stod(le) > bound) break;
    count = std::atoll(line.c_str() + line.rfind(' ') + 1);
  }
  return count;
}

TEST(ServerTest, IdleBatcherDoesNotWait) {
  // A request that reaches an idle batcher runs at once: with one request
  // in flight at a time, batch_wait is only the pop off the queue, never a
  // wait for more requests to join.
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.cache_capacity = 0;
  config.metrics_port = 0;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  const int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    const std::vector<std::string>& tokens = m.corpus.sentences[i].tokens;
    ASSERT_TRUE(client.SendLine(TokensRequest(i, tokens)));
    EXPECT_EQ(client.ReadLine(), ExpectedLine(i, "default", false, tokens,
                                              m.pipeline1->Tag(tokens)));
  }
  EXPECT_EQ(server.batches_total(), kRequests);
  const std::string body =
      ReadUntilContains([&] { return ScrapeBody(server); },
                        "\nserve_stage_batch_wait_us_count " +
                            std::to_string(kRequests) + "\n");
  EXPECT_EQ(IntAfter(body, "\nserve_stage_batch_wait_us_count "), kRequests);
  // Every wait lies in a bucket no higher than le="1023": under 1.024 ms.
  EXPECT_EQ(BucketCountAtOrBelow(body, "serve_stage_batch_wait_us", 1023),
            kRequests);
  server.Stop();
}

TEST(ServerTest, BatcherCoalescesWhileBusy) {
  // Requests that arrive while a batch computes form the next batch, capped
  // at plan::kMicroBatch: one write carries a max_tokens head and 32 distinct
  // sentences, which queue behind the head's compute and run in fewer
  // batches than requests, with every response unchanged.
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.cache_capacity = 0;
  config.max_tokens = kLongHeadTokens;
  config.metrics_port = 0;
  Server server(&registry, config);
  ASSERT_TRUE(server.Start());

  const int kRequests = 33;  // the head and 32 distinct sentences
  std::vector<std::vector<std::string>> sentences = {
      LongSentence(m.corpus, config.max_tokens)};
  std::set<std::vector<std::string>> seen = {sentences[0]};
  for (const text::Sentence& s : m.corpus.sentences) {
    if (static_cast<int>(sentences.size()) == kRequests) break;
    if (seen.insert(s.tokens).second) sentences.push_back(s.tokens);
  }
  ASSERT_EQ(static_cast<int>(sentences.size()), kRequests);
  std::string bytes;
  for (std::size_t i = 0; i < sentences.size(); ++i) {
    bytes += TokensRequest(static_cast<std::int64_t>(i), sentences[i]) + "\n";
  }
  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendRaw(bytes));

  std::vector<std::string> got(sentences.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string line = client.ReadLine();
    const int id = static_cast<int>(IntAfter(line, "\"id\":"));
    ASSERT_GE(id, 0) << line;
    ASSERT_LT(id, static_cast<int>(got.size())) << line;
    got[id] = line;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i],
              ExpectedLine(static_cast<std::int64_t>(i), "default", false,
                           sentences[i], m.pipeline1->Tag(sentences[i])));
  }
  EXPECT_LT(server.batches_total(), kRequests);
  const obs::Histogram* sizes =
      obs::Metrics::Get().histogram("serve.batch.size");
  EXPECT_EQ(sizes->count(), server.batches_total());
  EXPECT_LE(sizes->max(), static_cast<double>(plan::kMicroBatch));
  server.Stop();
}

TEST(ServerTest, SampledRequestsReconstructStageSpans) {
  const Models& m = Fixture();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", m.path1));
  ServeConfig config;
  config.trace_sample_rate = 1.0;
  Server server(&registry, config);
  obs::Tracer::Get().Clear();
  obs::EnableTracing(true);
  ASSERT_TRUE(server.Start());

  TestClient client(server.port());
  ASSERT_TRUE(client.ok());
  const std::vector<std::string>& tokens = m.corpus.sentences[4].tokens;
  ASSERT_TRUE(client.SendLine(TokensRequest(1, tokens)));
  const std::string first = client.ReadLine();
  ASSERT_TRUE(client.SendLine(TokensRequest(2, tokens)));  // cache hit
  const std::string second = client.ReadLine();
  server.Stop();
  obs::EnableTracing(false);

  // Tracing on must not perturb the served bytes.
  const std::vector<text::Span> spans = m.pipeline1->Tag(tokens);
  EXPECT_EQ(first, ExpectedLine(1, "default", false, tokens, spans));
  EXPECT_EQ(second, ExpectedLine(2, "default", true, tokens, spans));

  std::map<std::int64_t, std::string> requests;       // req id -> span args
  std::map<std::int64_t, std::set<std::string>> stages;
  bool saw_batch = false;
  for (const obs::SpanEvent& s : obs::Tracer::Get().Snapshot()) {
    if (s.name == "serve/batch") {
      saw_batch = true;
      EXPECT_NE(s.args.find("\"reqs\":["), std::string::npos) << s.args;
    } else if (s.name == "serve/request") {
      requests[ArgsReqId(s.args)] = s.args;
    } else if (s.name.rfind("serve/stage/", 0) == 0) {
      stages[ArgsReqId(s.args)].insert(s.name.substr(12));
    }
  }
  obs::Tracer::Get().Clear();

  EXPECT_TRUE(saw_batch);
  ASSERT_EQ(requests.size(), 2u);
  std::int64_t uncached = -1;
  std::int64_t cached = -1;
  for (const auto& [req, args] : requests) {
    EXPECT_GT(req, 0);
    if (args.find("\"cached\":false") != std::string::npos) uncached = req;
    if (args.find("\"cached\":true") != std::string::npos) cached = req;
  }
  ASSERT_GT(uncached, 0);
  ASSERT_GT(cached, 0);
  // The uncached request reconstructs as the full four-stage lifecycle, all
  // sharing its request id; the cache hit never entered the queue, so only
  // its write stage exists.
  EXPECT_EQ(stages[uncached],
            (std::set<std::string>{"queue_wait", "batch_wait", "compute",
                                   "write"}));
  EXPECT_EQ(stages[cached], (std::set<std::string>{"write"}));
}

}  // namespace
}  // namespace dlner::serve
