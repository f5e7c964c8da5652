#include "serve/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/strings.h"

namespace tj::serve {
namespace {

constexpr int kMaxDepth = 64;

void AppendEscaped(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrPrintf("\\u%04x", static_cast<unsigned>(
                                           static_cast<unsigned char>(c)));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    TJ_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing bytes after JSON value");
    }
    return value;
  }

 private:
  Status Fail(const std::string& message) const {
    return Status::InvalidArgument(
        StrPrintf("json offset %zu: %s", pos_, message.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return Fail("invalid literal");
      return JsonValue::Null();
    }
    if (c == 't') {
      if (!ConsumeLiteral("true")) return Fail("invalid literal");
      return JsonValue::Bool(true);
    }
    if (c == 'f') {
      if (!ConsumeLiteral("false")) return Fail("invalid literal");
      return JsonValue::Bool(false);
    }
    if (c == '"') return ParseString();
    if (c == '[') return ParseArray(depth);
    if (c == '{') return ParseObject(depth);
    return ParseNumber();
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      pos_ = start;
      return Fail("malformed number");
    }
    return JsonValue::Number(value);
  }

  /// Appends a Unicode code point as UTF-8.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (h >= '0' && h <= '9') {
        value |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return JsonValue::Str(std::move(out));
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          TJ_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (!ConsumeLiteral("\\u")) {
              return Fail("unpaired high surrogate");
            }
            TJ_ASSIGN_OR_RETURN(const uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Fail("unknown string escape");
      }
    }
    return Fail("unterminated string");
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      TJ_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      array.Append(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return array;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key string");
      }
      TJ_ASSIGN_OR_RETURN(const JsonValue key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      TJ_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(key.AsString(), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return object;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void SerializeInto(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      const double number = value.AsNumber();
      if (!std::isfinite(number)) {
        *out += "null";
        return;
      }
      // Integers print exactly — epoch/count fields must round-trip and
      // compare byte-identically across runs.
      constexpr double kExact = 9007199254740992.0;  // 2^53
      if (number == std::floor(number) && number >= -kExact &&
          number <= kExact) {
        *out += StrPrintf("%lld", static_cast<long long>(number));
      } else {
        *out += StrPrintf("%.17g", number);
      }
      return;
    }
    case JsonValue::Kind::kString:
      AppendEscaped(value.AsString(), out);
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        SerializeInto(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        SerializeInto(member, out);
      }
      out->push_back('}');
      return;
    }
  }
}

/// Reads exactly `n` bytes. `any_read` reports whether at least one byte
/// arrived (distinguishes a clean close from a mid-frame cut).
Status ReadExact(int fd, char* buffer, size_t n, const std::atomic<bool>* stop,
                 bool* any_read) {
  size_t off = 0;
  while (off < n) {
    const ssize_t got = ::read(fd, buffer + off, n - off);
    if (got > 0) {
      *any_read = true;
      off += static_cast<size_t>(got);
      continue;
    }
    if (got == 0) {
      if (*any_read || off > 0) {
        return Status::IOError("connection closed mid-frame");
      }
      return Status::NotFound("connection closed");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Receive timeout: the server loop polls its stop flag here so a
      // graceful shutdown wakes handlers parked between requests.
      if (stop != nullptr && stop->load(std::memory_order_relaxed) &&
          !*any_read && off == 0) {
        return Status::NotFound("server stopping");
      }
      continue;
    }
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

bool JsonValue::AsBool() const {
  TJ_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::AsNumber() const {
  TJ_CHECK(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::AsString() const {
  TJ_CHECK(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  TJ_CHECK(kind_ == Kind::kArray);
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  TJ_CHECK(kind_ == Kind::kObject);
  return object_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  TJ_CHECK(kind_ == Kind::kObject);
  for (auto& [name, member] : object_) {
    if (name == key) {
      member = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  TJ_CHECK(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
  return *this;
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeInto(*this, &out);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrPrintf("frame of %zu bytes exceeds the %zu-byte cap",
                  payload.size(), kMaxFrameBytes));
  }
  const auto length = static_cast<uint32_t>(payload.size());
  char prefix[4];
  prefix[0] = static_cast<char>(length & 0xFF);
  prefix[1] = static_cast<char>((length >> 8) & 0xFF);
  prefix[2] = static_cast<char>((length >> 16) & 0xFF);
  prefix[3] = static_cast<char>((length >> 24) & 0xFF);
  const auto write_all = [fd](const char* data, size_t n) -> Status {
    size_t off = 0;
    while (off < n) {
      // MSG_NOSIGNAL: a peer that already hung up is an EPIPE error for
      // this connection, not a SIGPIPE that ends the process.
      const ssize_t wrote = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
      if (wrote < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return Status::IOError(std::string("send: ") +
                               std::strerror(errno));
      }
      off += static_cast<size_t>(wrote);
    }
    return Status::OK();
  };
  TJ_RETURN_IF_ERROR(write_all(prefix, sizeof(prefix)));
  return write_all(payload.data(), payload.size());
}

Result<std::string> ReadFrame(int fd, size_t max_bytes,
                              const std::atomic<bool>* stop) {
  char prefix[4];
  bool any_read = false;
  TJ_RETURN_IF_ERROR(ReadExact(fd, prefix, sizeof(prefix), stop, &any_read));
  const uint32_t length =
      static_cast<uint32_t>(static_cast<unsigned char>(prefix[0])) |
      (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1])) << 8) |
      (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2])) << 16) |
      (static_cast<uint32_t>(static_cast<unsigned char>(prefix[3])) << 24);
  if (length > max_bytes || length > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StrPrintf("frame of %u bytes exceeds the %zu-byte cap",
                  static_cast<unsigned>(length),
                  max_bytes < kMaxFrameBytes ? max_bytes : kMaxFrameBytes));
  }
  std::string payload(length, '\0');
  if (length > 0) {
    TJ_RETURN_IF_ERROR(
        ReadExact(fd, payload.data(), payload.size(), stop, &any_read));
  }
  return payload;
}

}  // namespace tj::serve
