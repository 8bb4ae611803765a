#pragma once

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

/// \file status.h
/// Arrow/RocksDB-style error model: fallible operations return a Status (or a
/// Result<T>, see result.h) instead of throwing. Internal invariant violations
/// use PHOM_CHECK, which throws std::logic_error (they indicate bugs, not
/// recoverable conditions). Also home of CancelToken, the cooperative
/// interruption primitive whose Check() speaks this error model — it lives
/// here (not in solver.h) so the leaf kernels (fallback.h, monte_carlo.h)
/// can hold a token without depending on the dispatch layer.

namespace phom {

/// Outcome of a fallible operation.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotSupported,      ///< e.g. requesting a PTIME algorithm outside its cell
    kResourceExhausted, ///< fallback solver exceeded its configured limits
    kDeadlineExceeded,  ///< per-request deadline passed before completion
    kCancelled          ///< caller cancelled the request via its ticket
  };

  Status() : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(Code::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    std::string name;
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kInvalidArgument: name = "Invalid"; break;
      case Code::kNotSupported: name = "NotSupported"; break;
      case Code::kResourceExhausted: name = "ResourceExhausted"; break;
      case Code::kDeadlineExceeded: name = "DeadlineExceeded"; break;
      case Code::kCancelled: name = "Cancelled"; break;
    }
    return name + ": " + message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Cooperative interruption for long solves (the serve layer's deadline and
/// cancellation support). Computations consult the token at well-defined
/// yield points — before each component subproblem of a componentwise
/// dispatch (solver.h), and every cancel_check_interval iterations INSIDE
/// the world-enumeration / match-enumeration / Monte Carlo sampling loops
/// (fallback.h, monte_carlo.h) — and abort with DeadlineExceeded / Cancelled
/// when it fires. A token that never fires changes nothing: the answer is
/// bit-identical to solving without one.
///
/// Thread safety: Cancel/cancelled/Check may race freely (the flag is
/// atomic). SetDeadline is NOT synchronized — set it before sharing the
/// token with solving threads.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Requests cancellation. Cooperative: a solve already past its last
  /// yield point still completes normally.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Absolute deadline; call before handing the token to solving threads.
  void SetDeadline(Clock::time_point deadline) { deadline_ = deadline; }
  bool has_deadline() const {
    return deadline_ != Clock::time_point::max();
  }
  Clock::time_point deadline() const { return deadline_; }
  bool expired() const {
    return has_deadline() && Clock::now() >= deadline_;
  }

  /// OK while the computation may continue; otherwise Cancelled (checked
  /// first: an explicit cancel beats a deadline that lapsed in parallel)
  /// or DeadlineExceeded.
  Status Check() const {
    if (cancelled()) {
      return Status::Cancelled("solve cancelled by caller");
    }
    if (expired()) {
      return Status::DeadlineExceeded("solve deadline exceeded");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_ = Clock::time_point::max();
};

namespace internal {
[[noreturn]] inline void ThrowCheckFailure(const char* expr, const char* file,
                                           int line, const std::string& extra) {
  std::ostringstream os;
  os << "PHOM_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!extra.empty()) os << " — " << extra;
  throw std::logic_error(os.str());
}
}  // namespace internal

}  // namespace phom

/// Internal invariant check; failure is a bug in this library.
#define PHOM_CHECK(expr)                                                      \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::phom::internal::ThrowCheckFailure(#expr, __FILE__, __LINE__, "");     \
    }                                                                         \
  } while (0)

#define PHOM_CHECK_MSG(expr, msg)                                             \
  do {                                                                        \
    if (!(expr)) {                                                            \
      std::ostringstream phom_check_os_;                                      \
      phom_check_os_ << msg;                                                  \
      ::phom::internal::ThrowCheckFailure(#expr, __FILE__, __LINE__,          \
                                          phom_check_os_.str());              \
    }                                                                         \
  } while (0)

/// Propagate a non-OK Status to the caller.
#define PHOM_RETURN_NOT_OK(expr)                \
  do {                                          \
    ::phom::Status phom_status_ = (expr);       \
    if (!phom_status_.ok()) return phom_status_; \
  } while (0)
