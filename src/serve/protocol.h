// Wire protocol of the tjd serving mode: length-prefixed JSON frames over
// a unix-domain socket. A frame is a 4-byte little-endian payload length
// followed by that many bytes of UTF-8 JSON; requests and responses are
// single JSON objects. The JSON dialect is the minimal self-contained
// subset the daemon needs (null/bool/number/string/array/object, \uXXXX
// escapes with surrogate pairs) — no external dependency, deterministic
// serialization (object members keep insertion order, integral numbers
// print as integers) so responses can be compared byte-for-byte against a
// batch run's output in tests.

#ifndef TJ_SERVE_PROTOCOL_H_
#define TJ_SERVE_PROTOCOL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tj::serve {

/// Hard cap on a single frame; a peer announcing more is a protocol error,
/// not an allocation request.
inline constexpr size_t kMaxFrameBytes = 16u << 20;

/// One JSON value. Deliberately a small concrete class, not a tagged
/// library type: the daemon needs exactly parse, build, lookup, serialize.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = value;
    return v;
  }
  static JsonValue Number(double value) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = value;
    return v;
  }
  static JsonValue Str(std::string value) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(value);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Value accessors; each requires the matching kind (TJ_CHECK).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup; nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Builders. Set/Append require the matching kind (TJ_CHECK) and return
  /// *this for chaining.
  JsonValue& Set(std::string key, JsonValue value);
  JsonValue& Append(JsonValue value);

  /// Compact deterministic serialization (no whitespace; members in
  /// insertion order; integers in [-2^53, 2^53] without a decimal point,
  /// other finite numbers via %.17g; non-finite numbers serialize as null).
  std::string Serialize() const;

  /// Parses exactly one JSON value spanning the whole input (trailing
  /// non-whitespace is an error). Nesting is capped at 64 levels.
  static Result<JsonValue> Parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Writes one frame (length prefix + payload) to a socket, retrying short
/// writes. A closed peer yields IOError, never SIGPIPE.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame. Distinguished statuses:
///  * NotFound — the peer closed the connection cleanly before any byte of
///    this frame (the normal end of a connection), or `stop` became true
///    while waiting between bytes (server shutdown).
///  * InvalidArgument — the announced length exceeds `max_bytes`.
///  * IOError — read failures or a connection cut mid-frame.
/// When the fd has a receive timeout (SO_RCVTIMEO), each timeout checks
/// `stop` (when given) and otherwise keeps waiting.
Result<std::string> ReadFrame(int fd, size_t max_bytes = kMaxFrameBytes,
                              const std::atomic<bool>* stop = nullptr);

}  // namespace tj::serve

#endif  // TJ_SERVE_PROTOCOL_H_
