#ifndef SGNN_COMMON_STATUS_H_
#define SGNN_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/check.h"

/// Marks a type or function whose result must not be silently dropped.
/// Applied to `Status`/`StatusOr` themselves, so every function returning
/// one by value inherits the check; also placed on individual
/// Status-returning public APIs as documentation. The compiler enforces
/// what the `status/discarded` lint rule checks textually.
#define SGNN_NODISCARD [[nodiscard]]

namespace sgnn::common {

/// Error category for a failed operation. `kOk` denotes success.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kIOError,
  kInternal,
  kUnavailable,
  kDeadlineExceeded,
  kAborted,
  kResourceExhausted,
  kDataLoss,
};

/// Returns a short human-readable name such as "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus an optional message.
///
/// The library does not throw exceptions across API boundaries; operations
/// that can fail for data-dependent reasons return `Status` (or `StatusOr<T>`
/// for value-producing operations), following the RocksDB/Arrow idiom.
/// Programming errors are enforced with `SGNN_CHECK` instead.
class SGNN_NODISCARD Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// Transient overload (e.g. a full request queue): the caller may retry.
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  /// The operation's time budget ran out before it completed. Retrying
  /// without a fresh deadline is pointless.
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  /// The operation was cancelled mid-flight (e.g. an injected crash or a
  /// shutdown race); partial effects may need rollback or resume.
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  /// A hard resource cap (e.g. `storage::OpenOptions::budget_bytes`) cannot
  /// admit the operation's working set. Retrying at the same budget fails
  /// the same way; the caller must raise the budget or shrink the shards.
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  /// Stored or transmitted bytes failed an integrity check (CRC mismatch,
  /// torn write, truncated stream). Unlike `kIOError` the device worked;
  /// the *data* is unrecoverable from this replica and the caller must
  /// re-fetch, restore from a checkpoint, or fail the dependent operation.
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "Code: message", or "OK".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or a non-OK `Status` explaining its absence.
///
/// Accessing `value()` on an error-state object aborts via `SGNN_CHECK`,
/// so callers must test `ok()` first.
template <typename T>
class SGNN_NODISCARD StatusOr {
 public:
  /// Implicit construction from a value or an error, mirroring absl.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    SGNN_CHECK(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    SGNN_CHECK(status_.ok());
    return value_;
  }
  T& value() & {
    SGNN_CHECK(status_.ok());
    return value_;
  }
  T&& value() && {
    SGNN_CHECK(status_.ok());
    return std::move(value_);
  }

 private:
  Status status_;
  // `T()` rather than `T{}`: braces would reject types whose only default
  // construction path is an explicit constructor (e.g. `CsrGraph`).
  T value_ = T();
};

/// Propagates a non-OK status to the caller.
#define SGNN_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::sgnn::common::Status _sgnn_status = (expr);    \
    if (!_sgnn_status.ok()) return _sgnn_status;     \
  } while (false)

}  // namespace sgnn::common

#endif  // SGNN_COMMON_STATUS_H_
