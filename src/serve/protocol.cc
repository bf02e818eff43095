#include "serve/protocol.h"

#include <cctype>
#include <map>

#include "obs/obs.h"

namespace dlner::serve {

namespace {

// One decoded JSON value of the restricted grammar (string, integer,
// boolean, null, or array of strings). Doubles are rejected where an
// integer is required; nested containers are rejected outright.
struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kStringArray };
  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string str;
  std::vector<std::string> arr;
};

// Recursive-descent parser over one line. Error messages name the problem,
// not the byte offset — lines are short and the caller echoes the message
// back to the client.
class LineParser {
 public:
  LineParser(const char* p, const char* end) : p_(p), end_(end) {}

  bool ParseObject(std::map<std::string, JsonValue>* out) {
    SkipWs();
    if (!Consume('{')) return Fail("expected '{'");
    SkipWs();
    if (Consume('}')) return AtEnd();
    for (;;) {
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      if (out->count(key) > 0) return Fail("duplicate field \"" + key + "\"");
      (*out)[key] = std::move(value);
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume('}')) return AtEnd();
      return Fail("expected ',' or '}'");
    }
  }

  const std::string& error() const { return error_; }

 private:
  bool AtEnd() {
    SkipWs();
    if (p_ != end_) return Fail("trailing bytes after object");
    return true;
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* v) {
    SkipWs();
    if (p_ == end_) return Fail("unexpected end of line");
    switch (*p_) {
      case '"':
        v->kind = JsonValue::Kind::kString;
        return ParseString(&v->str);
      case '[':
        return ParseStringArray(v);
      case '{':
        return Fail("nested objects are not supported");
      case 't':
        if (ConsumeWord("true")) {
          v->kind = JsonValue::Kind::kBool;
          v->b = true;
          return true;
        }
        return Fail("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          v->kind = JsonValue::Kind::kBool;
          v->b = false;
          return true;
        }
        return Fail("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          v->kind = JsonValue::Kind::kNull;
          return true;
        }
        return Fail("bad literal");
      default:
        return ParseNumber(v);
    }
  }

  bool ConsumeWord(const char* w) {
    const char* q = p_;
    while (*w != '\0') {
      if (q == end_ || *q != *w) return false;
      ++q;
      ++w;
    }
    p_ = q;
    return true;
  }

  bool ParseNumber(JsonValue* v) {
    const char* start = p_;
    bool is_int = true;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '+' || *p_ == '-')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') is_int = false;
      ++p_;
    }
    const std::string text(start, p_);
    if (is_int) {
      std::int64_t i = 0;
      if (std::sscanf(text.c_str(), "%lld", reinterpret_cast<long long*>(&i)) !=
              1 ||
          std::to_string(i) != text) {
        return Fail("bad number \"" + text + "\"");
      }
      v->kind = JsonValue::Kind::kInt;
      v->i = i;
      return true;
    }
    double d = 0.0;
    if (std::sscanf(text.c_str(), "%lf", &d) != 1) {
      return Fail("bad number \"" + text + "\"");
    }
    v->kind = JsonValue::Kind::kDouble;
    v->d = d;
    return true;
  }

  bool ParseString(std::string* out) {
    SkipWs();
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (p_ != end_) {
      const unsigned char c = static_cast<unsigned char>(*p_++);
      if (c == '"') return true;
      if (c < 0x20) return Fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        continue;
      }
      if (p_ == end_) break;
      const char esc = *p_++;
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            if (p_ == end_) return Fail("truncated \\u escape");
            const char h = *p_++;
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // UTF-8 encode the basic-plane code point; surrogate pairs are
          // rejected (tokens with astral-plane characters can be sent as
          // raw UTF-8 bytes instead).
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            return Fail("surrogate \\u escapes are not supported");
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseStringArray(JsonValue* v) {
    v->kind = JsonValue::Kind::kStringArray;
    Consume('[');
    SkipWs();
    if (Consume(']')) return true;
    for (;;) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') {
        return Fail("arrays may only contain strings");
      }
      std::string s;
      if (!ParseString(&s)) return false;
      v->arr.push_back(std::move(s));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']'");
    }
  }

  const char* p_;
  const char* end_;
  std::string error_;
};

bool SemanticFail(const std::string& message, std::string* error, int* code) {
  *error = message;
  *code = kBadRequest;
  return false;
}

}  // namespace

bool ParseRequest(const std::string& line, Request* out, std::string* error,
                  int* code) {
  std::map<std::string, JsonValue> fields;
  LineParser parser(line.data(), line.data() + line.size());
  if (!parser.ParseObject(&fields)) {
    *error = "malformed request: " + parser.error();
    *code = kBadRequest;
    return false;
  }

  // Extract the id first so even a semantically bad request can have its
  // error response correlated by the client.
  if (const auto it = fields.find("id"); it != fields.end()) {
    if (it->second.kind != JsonValue::Kind::kInt) {
      return SemanticFail("\"id\" must be an integer", error, code);
    }
    out->has_id = true;
    out->id = it->second.i;
    fields.erase(it);
  }

  if (const auto it = fields.find("model"); it != fields.end()) {
    if (it->second.kind != JsonValue::Kind::kString || it->second.str.empty()) {
      return SemanticFail("\"model\" must be a non-empty string", error, code);
    }
    out->model = it->second.str;
    fields.erase(it);
  }

  if (const auto it = fields.find("cmd"); it != fields.end()) {
    if (it->second.kind != JsonValue::Kind::kString) {
      return SemanticFail("\"cmd\" must be a string", error, code);
    }
    out->kind = Request::Kind::kAdmin;
    out->cmd = it->second.str;
    fields.erase(it);
    if (out->cmd == "reload") {
      const auto path = fields.find("path");
      if (path == fields.end() ||
          path->second.kind != JsonValue::Kind::kString ||
          path->second.str.empty()) {
        return SemanticFail("reload requires a \"path\" string", error, code);
      }
      out->path = path->second.str;
      fields.erase(path);
    } else if (out->cmd != "models" && out->cmd != "stats" &&
               out->cmd != "metrics" && out->cmd != "shutdown") {
      return SemanticFail("unknown cmd \"" + out->cmd + "\"", error, code);
    }
    if (!fields.empty()) {
      return SemanticFail("unknown field \"" + fields.begin()->first + "\"",
                          error, code);
    }
    return true;
  }

  out->kind = Request::Kind::kTag;
  const auto text = fields.find("text");
  const auto tokens = fields.find("tokens");
  if ((text != fields.end()) == (tokens != fields.end())) {
    return SemanticFail("exactly one of \"text\" or \"tokens\" is required",
                        error, code);
  }
  if (text != fields.end()) {
    if (text->second.kind != JsonValue::Kind::kString) {
      return SemanticFail("\"text\" must be a string", error, code);
    }
    out->tokens = text::SplitWhitespace(text->second.str);
    fields.erase(text);
  } else {
    if (tokens->second.kind != JsonValue::Kind::kStringArray) {
      return SemanticFail("\"tokens\" must be an array of strings", error,
                          code);
    }
    for (const std::string& tok : tokens->second.arr) {
      if (tok.empty()) {
        return SemanticFail("\"tokens\" entries must be non-empty", error,
                            code);
      }
    }
    out->tokens = tokens->second.arr;
    fields.erase(tokens);
  }
  if (const auto doc = fields.find("doc"); doc != fields.end()) {
    if (doc->second.kind != JsonValue::Kind::kBool) {
      return SemanticFail("\"doc\" must be a boolean", error, code);
    }
    out->doc = doc->second.b;
    fields.erase(doc);
  }
  if (!fields.empty()) {
    return SemanticFail("unknown field \"" + fields.begin()->first + "\"",
                        error, code);
  }
  return true;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  out += obs::internal::JsonEscape(s);
  out += '"';
  return out;
}

std::string TagPayload(const std::vector<std::string>& tokens,
                       const std::vector<text::Span>& spans) {
  std::string out = "\"tokens\":[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += JsonQuote(tokens[i]);
  }
  out += "],\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"start\":" + std::to_string(spans[i].start) +
           ",\"end\":" + std::to_string(spans[i].end) +
           ",\"type\":" + JsonQuote(spans[i].type) + "}";
  }
  out += "]";
  return out;
}

std::string TagResponse(const Request& req, bool cached,
                        const std::string& payload) {
  std::string out = "{";
  if (req.has_id) out += "\"id\":" + std::to_string(req.id) + ",";
  out += "\"model\":" + JsonQuote(req.model) +
         ",\"cached\":" + (cached ? "true" : "false") +
         (req.doc ? ",\"doc\":true" : "") + "," + payload + "}";
  return out;
}

std::string ErrorResponse(bool has_id, std::int64_t id, int code,
                          const std::string& message) {
  std::string out = "{";
  if (has_id) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"error\":{\"code\":" + std::to_string(code) +
         ",\"message\":" + JsonQuote(message) + "}}";
  return out;
}

}  // namespace dlner::serve
