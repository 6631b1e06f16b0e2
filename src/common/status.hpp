// Minimal Status / Result types for routine, expected failures.
//
// Per the Core Guidelines (E.2/E.3) we throw exceptions only for contract
// violations and unrecoverable errors; failures that are part of normal
// operation in a mobile environment — a radio that is off, a peer that
// moved out of range, a query that parses but cannot be satisfied — are
// reported through Status / Result<T> so callers are forced to look.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace contory {

/// Broad failure categories used across the middleware and substrates.
enum class StatusCode {
  kOk,
  kInvalidArgument,   // caller passed something malformed (query syntax, ...)
  kNotFound,          // no such query / tag / service / device
  kUnavailable,       // transient: radio off, peer out of range, disconnected
  kDeadlineExceeded,  // timeout waiting for a result
  kPermissionDenied,  // AccessController blocked the interaction
  kResourceExhausted, // control policy or memory/energy budget hit
  kFailedPrecondition,// operation ordering violated (publish before register)
  kAlreadyExists,     // duplicate registration / id collision
  kOverloaded,        // admission shed the request; retry-after hint in msg
  kInternal,          // bug in our own machinery
};

/// Human-readable name of a StatusCode ("UNAVAILABLE").
[[nodiscard]] const char* StatusCodeName(StatusCode code) noexcept;

/// A success/failure outcome with an explanatory message on failure.
class [[nodiscard]] Status {
 public:
  /// Success.
  Status() noexcept : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return {}; }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  /// "OK" or "UNAVAILABLE: bluetooth radio is off".
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status InvalidArgument(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status NotFound(std::string msg) {
  return {StatusCode::kNotFound, std::move(msg)};
}
inline Status Unavailable(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status DeadlineExceeded(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
inline Status PermissionDenied(std::string msg) {
  return {StatusCode::kPermissionDenied, std::move(msg)};
}
inline Status ResourceExhausted(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status FailedPrecondition(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}
inline Status AlreadyExists(std::string msg) {
  return {StatusCode::kAlreadyExists, std::move(msg)};
}
inline Status Overloaded(std::string msg) {
  return {StatusCode::kOverloaded, std::move(msg)};
}
inline Status Internal(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}

/// Thrown by Result<T>::value() on a failed result — a programming error,
/// since callers must check ok() first.
class BadResultAccess : public std::logic_error {
 public:
  explicit BadResultAccess(const Status& status)
      : std::logic_error("Result accessed without value: " +
                         status.ToString()) {}
};

/// Either a T or a failure Status. Intentionally tiny — just enough of the
/// absl::StatusOr shape for this code base.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): mirroring StatusOr.
  Result(T value) : value_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Internal("Result constructed from OK status without value");
    }
  }

  [[nodiscard]] bool ok() const noexcept { return value_.has_value(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw BadResultAccess(status_);
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw BadResultAccess(status_);
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw BadResultAccess(status_);
    return std::move(*value_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] T&& operator*() && { return std::move(*this).value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  /// Returns the value or `fallback` when failed.
  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

}  // namespace contory
