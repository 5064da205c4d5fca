// Minimal Status / StatusOr, modeled on absl::Status, for fallible paths
// (SQL parsing, binding, plan validation). Exceptions are not used.
#ifndef GSOPT_BASE_STATUS_H_
#define GSOPT_BASE_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "base/check.h"

namespace gsopt {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kUnimplemented,
  kInternal,
  kOutOfRange,
  // A cooperative resource budget (wall-clock deadline, plan cap, row cap,
  // memory cap) was exhausted. Recoverable: the optimizer falls back to the
  // as-written plan, and the executor's spill path degrades hash state
  // out-of-core.
  kResourceExhausted,
  // A transient fault -- short spill write/read, injected chaos -- where
  // an identical retry may succeed.
  // Session honors this with its bounded retry-with-backoff policy;
  // persistent conditions (ENOSPC, caps) use kResourceExhausted instead.
  kUnavailable,
  // The serving layer refused to start the work at all: admission queue
  // full, per-tenant concurrency quota exceeded, or the server is
  // draining. Distinct from kResourceExhausted (which means admitted work
  // tripped a cap mid-flight): a shed request consumed no budget, so the
  // client may retry against a less-loaded server.
  kShed,
};

// The wire-stable error taxonomy. StatusCode is an internal enum -- it can
// grow or be reordered between releases -- while ErrorClass values are
// frozen: they travel in the server protocol's ERROR frame (one byte) and
// in BENCH/monitoring output, so clients built against any version decode
// them identically. Every StatusCode collapses onto exactly one class:
//
//   kInvalid            the request itself is wrong (malformed SQL,
//                       unknown table, parameter-count mismatch, bad
//                       frame). Retrying the identical request cannot
//                       succeed.
//   kResourceExhausted  admitted work tripped a cooperative cap (deadline
//                       / row / memory / plan). Retrying verbatim against
//                       the same budget fails again; a bigger budget or a
//                       cheaper query may succeed.
//   kTransient          an identical in-process retry may succeed (short
//                       spill I/O). Session's bounded
//                       retry-with-backoff consumes these; ones that
//                       escape to the wire were retried to exhaustion.
//   kShed               the server refused admission (queue full, tenant
//                       quota, draining) without spending the request's
//                       budget. Retry later or elsewhere.
//   kInternal           a bug or an unclassified failure. Do not retry.
//
// Numeric values are part of the protocol. Append only; never renumber.
enum class ErrorClass : uint8_t {
  kOk = 0,
  kInvalid = 1,
  kResourceExhausted = 2,
  kTransient = 3,
  kShed = 4,
  kInternal = 5,
};

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status Unimplemented(std::string m) {
    return Status(StatusCode::kUnimplemented, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Shed(std::string m) {
    return Status(StatusCode::kShed, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  // The retry contract, in two layers:
  //
  //   IsTransient(): an IDENTICAL in-process retry may succeed -- same
  //     plan, same budget, same server. This is what Session's bounded
  //     retry-with-backoff loop keys on. Only kUnavailable qualifies.
  //   IsRetryable(): the REQUEST is worth re-issuing, possibly later or
  //     against another server -- transient faults plus sheds (the server
  //     declined without spending any budget). Caps (kResourceExhausted)
  //     are deliberately NOT retryable: an identical attempt meets the
  //     identical cap.
  bool IsTransient() const { return code_ == StatusCode::kUnavailable; }
  bool IsRetryable() const {
    return IsTransient() || code_ == StatusCode::kShed;
  }
  StatusCode code() const { return code_; }
  // The wire-stable class this status collapses onto (see ErrorClass).
  ErrorClass error_class() const {
    switch (code_) {
      case StatusCode::kOk:
        return ErrorClass::kOk;
      case StatusCode::kInvalidArgument:
      case StatusCode::kNotFound:
      case StatusCode::kUnimplemented:
      case StatusCode::kOutOfRange:
        return ErrorClass::kInvalid;
      case StatusCode::kResourceExhausted:
        return ErrorClass::kResourceExhausted;
      case StatusCode::kUnavailable:
        return ErrorClass::kTransient;
      case StatusCode::kShed:
        return ErrorClass::kShed;
      case StatusCode::kInternal:
        return ErrorClass::kInternal;
    }
    return ErrorClass::kInternal;
  }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

 private:
  static std::string CodeName(StatusCode c) {
    switch (c) {
      case StatusCode::kOk:
        return "OK";
      case StatusCode::kInvalidArgument:
        return "InvalidArgument";
      case StatusCode::kNotFound:
        return "NotFound";
      case StatusCode::kUnimplemented:
        return "Unimplemented";
      case StatusCode::kInternal:
        return "Internal";
      case StatusCode::kOutOfRange:
        return "OutOfRange";
      case StatusCode::kResourceExhausted:
        return "ResourceExhausted";
      case StatusCode::kUnavailable:
        return "Unavailable";
      case StatusCode::kShed:
        return "Shed";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string message_;
};

inline std::string ErrorClassName(ErrorClass c) {
  switch (c) {
    case ErrorClass::kOk:
      return "ok";
    case ErrorClass::kInvalid:
      return "invalid";
    case ErrorClass::kResourceExhausted:
      return "resource-exhausted";
    case ErrorClass::kTransient:
      return "transient";
    case ErrorClass::kShed:
      return "shed";
    case ErrorClass::kInternal:
      return "internal";
  }
  return "internal";
}

// Decodes a wire byte back to a class; out-of-range bytes (a newer server
// talking to an older client) collapse to kInternal rather than UB.
inline ErrorClass ErrorClassFromWire(uint8_t b) {
  return b <= static_cast<uint8_t>(ErrorClass::kInternal)
             ? static_cast<ErrorClass>(b)
             : ErrorClass::kInternal;
}

// Holds either a value or an error status. `value()` aborts on error; use
// `ok()` first on fallible paths.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT
    GSOPT_CHECK(!std::get<Status>(rep_).ok());
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    GSOPT_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  T& value() & {
    GSOPT_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(rep_);
  }
  T&& value() && {
    GSOPT_CHECK_MSG(ok(), status().ToString().c_str());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

#define GSOPT_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::gsopt::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define GSOPT_CONCAT_INNER_(a, b) a##b
#define GSOPT_CONCAT_(a, b) GSOPT_CONCAT_INNER_(a, b)

#define GSOPT_ASSIGN_OR_RETURN(lhs, rexpr)                             \
  GSOPT_ASSIGN_OR_RETURN_IMPL_(GSOPT_CONCAT_(_sor_, __LINE__), lhs, rexpr)

#define GSOPT_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value();

}  // namespace gsopt

#endif  // GSOPT_BASE_STATUS_H_
