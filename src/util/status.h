// Status / Result error-handling primitives, following the Arrow / RocksDB
// idiom: fallible functions return a Status (or Result<T>) instead of
// throwing; callers propagate with HOPS_RETURN_NOT_OK / HOPS_ASSIGN_OR_RETURN.

#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace hops {

/// \brief Machine-readable classification of a failure.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kNotImplemented = 5,
  kResourceExhausted = 6,
  kInternal = 7,
};

/// \brief Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation that can fail.
///
/// An OK status carries no message and is cheap to copy. Error statuses carry
/// a code and a message. This mirrors arrow::Status with the subset of
/// functionality this library needs.
class Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given \p code and \p message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsNotImplemented() const {
    return code_ == StatusCode::kNotImplemented;
  }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// Renders "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Aborts the process if the status is not OK. Use only where failure is a
  /// programming error (e.g. in examples and benches).
  void Check() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// \brief Either a value of type T or an error Status.
///
/// Minimal analogue of arrow::Result. A Result is never "empty": it always
/// holds either a value or a non-OK status.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (the common success path).
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. Must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : state_(std::move(status)) {
    assert(!std::get<Status>(state_).ok() &&
           "Result must not be constructed from an OK status");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// Returns the error status, or OK if the result holds a value.
  Status status() const& {
    return ok() ? Status::OK() : std::get<Status>(state_);
  }
  /// Same, moving the error out of an expiring Result.
  Status status() && {
    return ok() ? Status::OK() : std::move(std::get<Status>(state_));
  }

  /// Returns the contained value. Requires ok().
  const T& ValueOrDie() const& {
    CheckOk();
    return std::get<T>(state_);
  }
  T& ValueOrDie() & {
    CheckOk();
    return std::get<T>(state_);
  }
  T&& ValueOrDie() && {
    CheckOk();
    return std::move(std::get<T>(state_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value, or \p alternative when holding an error.
  T ValueOr(T alternative) const {
    return ok() ? std::get<T>(state_) : std::move(alternative);
  }

 private:
  void CheckOk() const {
    if (!ok()) {
      // Deliberately crash with the message visible; mirrors
      // arrow::Result::ValueOrDie semantics.
      fprintf(stderr, "Result::ValueOrDie on error: %s\n",
              std::get<Status>(state_).ToString().c_str());
      abort();
    }
  }

  std::variant<T, Status> state_;
};

}  // namespace hops

/// Propagates a non-OK Status to the caller.
#define HOPS_RETURN_NOT_OK(expr)             \
  do {                                       \
    ::hops::Status _st = (expr);             \
    if (!_st.ok()) return _st;               \
  } while (false)

#define HOPS_CONCAT_IMPL(x, y) x##y
#define HOPS_CONCAT(x, y) HOPS_CONCAT_IMPL(x, y)

/// Evaluates a Result-returning expression; on success binds the value to
/// `lhs`, on failure returns the error Status to the caller.
#define HOPS_ASSIGN_OR_RETURN(lhs, rexpr)                     \
  auto HOPS_CONCAT(_res_, __LINE__) = (rexpr);                \
  if (!HOPS_CONCAT(_res_, __LINE__).ok())                     \
    return HOPS_CONCAT(_res_, __LINE__).status();             \
  lhs = std::move(HOPS_CONCAT(_res_, __LINE__)).ValueOrDie()
