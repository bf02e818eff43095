// Newline-delimited JSON request/response framing for dlner_serve.
//
// One request per line, one response per line, in any order (responses
// carry the request's id). The grammar is deliberately tiny — a flat JSON
// object whose values are strings, integers, booleans, or arrays of
// strings — and strict: unknown fields, nested objects, and malformed
// escapes are rejected with an error response rather than guessed at, the
// same posture the checked CLI flag parser takes (core/flags.h).
//
// Tagging request   {"id":7,"model":"default","text":"John visited Paris"}
//                   {"id":8,"tokens":["John","visited","Paris"]}
//                   {"id":9,"doc":true,"tokens":["Li","spoke","."]}
//
// "doc":true marks the request as part of the connection's current
// document: the response reflects (and updates) the per-connection
// entity-consistency memory (stream/entity_memory.h), and is echoed with a
// "doc":true marker. Document requests bypass the response cache — their
// answer depends on connection state, not just (model, tokens).
// Admin request     {"cmd":"reload","model":"default","path":"new.bin"}
//                   {"cmd":"models"} {"cmd":"stats"} {"cmd":"metrics"}
//                   {"cmd":"shutdown"}
//
// "stats" answers the lifetime counters and the live queue depth; "metrics"
// answers {"id":..,"metrics":"<...>"} where the value is the full
// Prometheus text exposition, JSON-escaped — the same bytes the
// --metrics-port HTTP scrape serves.
// Tagging response  {"id":7,"model":"default","cached":false,
//                    "tokens":[...],"spans":[{"start":1,"end":2,
//                    "type":"LOC"}]}
// Error response    {"id":7,"error":{"code":429,"message":"queue full"}}
//
// The "tokens"/"spans" fragment of a tagging response is produced by
// TagPayload and is exactly the string the LRU response cache stores, so a
// cache hit is bit-identical to the uncached response (only the "cached"
// flag and the echoed id differ).
#ifndef DLNER_SERVE_PROTOCOL_H_
#define DLNER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/types.h"

namespace dlner::serve {

// HTTP-flavored error codes used in error responses.
inline constexpr int kBadRequest = 400;    // malformed JSON / bad fields
inline constexpr int kUnknownModel = 404;  // model name not in the registry
inline constexpr int kTooLarge = 413;      // line or token count over limit
inline constexpr int kQueueFull = 429;     // admission queue at capacity
inline constexpr int kInternal = 500;      // server-side failure
inline constexpr int kShuttingDown = 503;  // server is draining

/// Parsed form of one request line.
struct Request {
  enum class Kind { kTag, kAdmin };
  Kind kind = Kind::kTag;
  bool has_id = false;
  std::int64_t id = 0;
  std::string model = "default";
  std::vector<std::string> tokens;  // kTag ("text" is whitespace-tokenized)
  /// kTag: part of the connection's current document (doc-context state).
  bool doc = false;
  std::string cmd;  // kAdmin: reload|models|stats|metrics|shutdown
  std::string path;                 // kAdmin reload: checkpoint to load
};

/// Parses one request line. On failure returns false and fills *error and
/// *code; *out still carries any id that could be extracted so the error
/// response can echo it.
bool ParseRequest(const std::string& line, Request* out, std::string* error,
                  int* code);

/// JSON string escaping for response construction (quotes, backslashes,
/// control characters).
std::string JsonQuote(const std::string& s);

/// The `"tokens":[...],"spans":[...]` fragment of a tagging response.
/// Deterministic function of (tokens, spans) — this is the cache value.
std::string TagPayload(const std::vector<std::string>& tokens,
                       const std::vector<text::Span>& spans);

/// Full tagging response line (no trailing newline).
std::string TagResponse(const Request& req, bool cached,
                        const std::string& payload);

/// Error response line; echoes the id when `has_id`.
std::string ErrorResponse(bool has_id, std::int64_t id, int code,
                          const std::string& message);

}  // namespace dlner::serve

#endif  // DLNER_SERVE_PROTOCOL_H_
