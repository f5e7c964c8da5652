// Status and Result<T>: exception-free error handling for the library core.
//
// The library follows the RocksDB/Arrow convention of returning a Status (or
// a Result<T> carrying either a value or a Status) from every fallible
// operation instead of throwing. Hot paths that only need a success flag use
// std::optional instead.

#ifndef TJ_COMMON_STATUS_H_
#define TJ_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace tj {

/// Broad error categories, modeled after absl::StatusCode / rocksdb::Status.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyExists = 4,
  kResourceExhausted = 5,
  kIOError = 6,
  kInternal = 7,
  kUnimplemented = 8,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// An OK status carries no message and no allocation. Error statuses carry a
/// code and a context message. Statuses are copyable and movable.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" for success, "<Code>: <message>" otherwise.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. A minimal std::expected
/// stand-in (gcc 12 does not ship <expected>).
template <typename T>
class Result {
 public:
  /// Implicit from a value: allows `return value;` from Result-returning
  /// functions.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from an error status: allows `return Status::...;`.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }

  /// The error status; OK when a value is held.
  const Status& status() const { return status_; }

  /// Requires ok(). Terminates the process otherwise.
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  /// `*std::move(r)` moves the value out instead of copying it.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const;

  std::optional<T> value_;
  Status status_;
};

namespace internal {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal

template <typename T>
void Result<T>::CheckOk() const {
  if (!ok()) internal::DieOnBadResultAccess(status_);
}

}  // namespace tj

/// Propagates an error Status from the current function.
#define TJ_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::tj::Status _tj_status = (expr);             \
    if (!_tj_status.ok()) return _tj_status;      \
  } while (false)

/// Evaluates `rexpr` (a Result<T>) and propagates its error Status from the
/// current function; otherwise moves the value into `lhs`, a declaration
/// (`T x`, `auto x`) or an assignable lvalue. Expands to statements, so it
/// must stand in a block, not as the lone body of an unbraced if/else.
#define TJ_ASSIGN_OR_RETURN(lhs, rexpr) \
  TJ_ASSIGN_OR_RETURN_IMPL_(TJ_CONCAT_(_tj_result_, __COUNTER__), lhs, rexpr)

#define TJ_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define TJ_CONCAT_(a, b) TJ_CONCAT_INNER_(a, b)
#define TJ_CONCAT_INNER_(a, b) a##b

#endif  // TJ_COMMON_STATUS_H_
