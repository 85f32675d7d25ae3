#ifndef MARAS_UTIL_STATUS_H_
#define MARAS_UTIL_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace maras {

// A Status encapsulates the result of an operation. It may indicate success,
// or it may indicate an error with an associated error message. No exceptions
// cross public API boundaries in this library; fallible operations return
// Status or StatusOr<T>.
//
// Idiom (RocksDB/Arrow style):
//   Status s = DoSomething();
//   if (!s.ok()) return s;
//
// [[nodiscard]]: a silently-dropped error from ingest, mining, or
// checkpointing corrupts downstream safety signals, so every Status return
// must be consumed. Use MARAS_IGNORE_STATUS to discard with justification.
class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kInvalidArgument = 1,
    kNotFound = 2,
    kCorruption = 3,
    kIOError = 4,
    kOutOfRange = 5,
    kAlreadyExists = 6,
    kFailedPrecondition = 7,
    kInternal = 8,
    // Resource-governance codes (util/run_context.h): a governed operation
    // stopped cooperatively instead of running away.
    kCancelled = 9,          // CancellationToken tripped
    kDeadlineExceeded = 10,  // Deadline (steady clock) passed
    kResourceExhausted = 11, // MemoryBudget breached
  };

  // Success status.
  Status() : code_(Code::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(Code::kCorruption, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(Code::kIOError, msg);
  }
  static Status OutOfRange(std::string_view msg) {
    return Status(Code::kOutOfRange, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(Code::kAlreadyExists, msg);
  }
  static Status FailedPrecondition(std::string_view msg) {
    return Status(Code::kFailedPrecondition, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(Code::kInternal, msg);
  }
  static Status Cancelled(std::string_view msg) {
    return Status(Code::kCancelled, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(Code::kDeadlineExceeded, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(Code::kResourceExhausted, msg);
  }
  // The inverse of code() + message(), for codecs that persist a Status.
  // An OK code yields OK() whatever `msg` says.
  static Status FromCode(Code code, std::string_view msg) {
    return code == Code::kOk ? Status() : Status(code, msg);
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsOutOfRange() const { return code_ == Code::kOutOfRange; }
  bool IsAlreadyExists() const { return code_ == Code::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code_ == Code::kFailedPrecondition;
  }
  bool IsInternal() const { return code_ == Code::kInternal; }
  bool IsCancelled() const { return code_ == Code::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code_ == Code::kDeadlineExceeded;
  }
  bool IsResourceExhausted() const {
    return code_ == Code::kResourceExhausted;
  }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  // Human-readable representation, e.g. "InvalidArgument: empty file name".
  std::string ToString() const;

 private:
  Status(Code code, std::string_view msg)
      : code_(code), message_(msg) {}

  friend Status WithContext(const Status& status, std::string_view context);

  Code code_;
  std::string message_;
};

// Returns `status` with `context` prefixed onto its message, preserving the
// code: WithContext(Corruption("bad rept_cod"), "DEMO12Q3.txt:47") yields
// "Corruption: DEMO12Q3.txt:47: bad rept_cod". OK statuses pass through
// unchanged, so the call is safe on any return path.
Status WithContext(const Status& status, std::string_view context);

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

// Explicitly discards a Status (or StatusOr) expression. The only sanctioned
// way to drop a [[nodiscard]] result; grep-able so every deliberate discard
// carries a nearby justification comment.
#define MARAS_IGNORE_STATUS(expr) \
  do {                            \
    (void)(expr);                 \
  } while (0)

// Evaluates `expr` (a Status expression) and returns it from the enclosing
// function if it is not OK.
#define MARAS_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::maras::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                       \
  } while (0)

// As MARAS_RETURN_IF_ERROR, but wraps the propagated error with `context`
// (any expression convertible to std::string_view, evaluated only on error).
#define MARAS_RETURN_IF_ERROR_CTX(expr, context)     \
  do {                                               \
    ::maras::Status _st = (expr);                    \
    if (!_st.ok()) return ::maras::WithContext(_st, (context)); \
  } while (0)

}  // namespace maras

#endif  // MARAS_UTIL_STATUS_H_
