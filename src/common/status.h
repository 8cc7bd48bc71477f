// Status / Result<T>: Arrow/RocksDB-style error propagation.
//
// Library code never throws; fallible operations return Status (void results)
// or Result<T>. Programming errors (violated invariants) abort via the CHECK
// macros in macros.h.
#ifndef MSKETCH_COMMON_STATUS_H_
#define MSKETCH_COMMON_STATUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace msketch {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotConverged = 3,      // iterative solver failed to reach tolerance
  kSingular = 4,          // matrix factorization broke down
  kInfeasible = 5,        // optimization problem has no feasible point
  kSerialization = 6,     // malformed byte stream
  kUnsupported = 7,       // operation not valid for this configuration
  kInternal = 8,
  kIOError = 9,           // file system operation failed (may be transient)
  kCorruption = 10,       // on-disk data failed a checksum or invariant
  kDeadlineExceeded = 11,  // bounded wait expired (e.g. backpressure stall)
  kUnavailable = 12,       // peer/resource transiently unreachable — retry
};

/// Typed refinement of a status code, set where the error arises so
/// callers branch on it instead of matching message text.
enum class StatusReason : uint8_t {
  kNone = 0,
  kAtomicMeasure = 1,  // maxent refused: moments match a near-discrete measure
  kIterationCap = 2,   // Newton ended at its iteration cap (or its fixed point)
};

/// Lightweight status object. Ok status carries no allocation.
class Status {
 public:
  Status() : state_(nullptr) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotConverged(std::string msg) {
    return Status(StatusCode::kNotConverged, std::move(msg));
  }
  static Status Singular(std::string msg) {
    return Status(StatusCode::kSingular, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Serialization(std::string msg) {
    return Status(StatusCode::kSerialization, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }
  StatusReason reason() const {
    return ok() ? StatusReason::kNone : state_->reason;
  }
  /// This status with `reason` attached (OK stays OK).
  Status WithReason(StatusReason reason) const {
    if (ok()) return *this;
    Status out(state_->code, state_->msg);
    out.state_->reason = reason;
    return out;
  }
  std::string ToString() const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
    StatusReason reason = StatusReason::kNone;
  };
  Status(StatusCode code, std::string msg)
      : state_(std::make_shared<State>(State{code, std::move(msg)})) {}

  std::shared_ptr<State> state_;  // shared so Status is cheap to copy
};

/// Classifies a status by whether the same operation may succeed if
/// simply retried: kUnavailable (peer down, link reset), kIOError
/// (transient file-system failures — persistent ones exhaust the
/// caller's retry budget), and kDeadlineExceeded (a bounded wait that
/// may find the resource free next time). Retry loops branch on this,
/// never on message text. Corruption, serialization, and argument
/// errors are deterministic — retrying them wastes the budget.
inline bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

/// Result<T> holds either a value or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : payload_(std::move(value)) {}      // NOLINT implicit
  Result(Status status) : payload_(std::move(status)) {  // NOLINT implicit
    // An OK status carries no value; that is a programming error.
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }
  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }
  /// Precondition: ok(). (Checked only in debug builds via std::get.)
  const T& value() const& { return std::get<T>(payload_); }
  T& value() & { return std::get<T>(payload_); }
  T&& value() && { return std::move(std::get<T>(payload_)); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> payload_;
};

#define MSKETCH_RETURN_NOT_OK(expr)        \
  do {                                     \
    ::msketch::Status _st = (expr);        \
    if (!_st.ok()) return _st;             \
  } while (0)

#define MSKETCH_CONCAT_INNER(a, b) a##b
#define MSKETCH_CONCAT(a, b) MSKETCH_CONCAT_INNER(a, b)

#define MSKETCH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#define MSKETCH_ASSIGN_OR_RETURN(lhs, expr) \
  MSKETCH_ASSIGN_OR_RETURN_IMPL(MSKETCH_CONCAT(_res_, __LINE__), lhs, expr)

}  // namespace msketch

#endif  // MSKETCH_COMMON_STATUS_H_
