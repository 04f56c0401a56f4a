// Status / Result: lightweight error propagation used throughout SkyLoader.
//
// The engine and loader never throw for expected data errors (bad row, key
// violation, ...); those travel as Status values so the bulk-loading
// algorithm's skip-and-resume recovery (paper section 4.2) can act on them.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace sky {

// Error taxonomy. The Constraint* codes mirror what an RDBMS reports on a
// failed batched insert; the loader's error handling branches on them.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,          // duplicate primary key
  kConstraintPrimaryKey,   // explicit PK violation
  kConstraintForeignKey,   // referenced parent row missing
  kConstraintCheck,        // value out of declared range
  kConstraintNotNull,
  kTypeMismatch,
  kParseError,             // malformed catalog row
  kIoError,
  kResourceExhausted,      // e.g. transaction slots
  kFailedPrecondition,
  kAborted,
  // Waits-for cycle on admission gates: this transaction was chosen as the
  // deadlock victim and must roll back (db/lock_manager.h WaitGraph).
  // Deliberately NOT in the constraint family — the loader must not skip
  // the row and move on; it aborts and retries the unit.
  kDeadlockDetected,
  kUnimplemented,
  kInternal,
};

std::string_view error_code_name(ErrorCode code);

// Is this code one of the constraint-violation family? (These are the errors
// the bulk loader expects to skip row-by-row.)
constexpr bool is_constraint_error(ErrorCode code) {
  switch (code) {
    case ErrorCode::kAlreadyExists:
    case ErrorCode::kConstraintPrimaryKey:
    case ErrorCode::kConstraintForeignKey:
    case ErrorCode::kConstraintCheck:
    case ErrorCode::kConstraintNotNull:
    case ErrorCode::kTypeMismatch:
      return true;
    default:
      return false;
  }
}

class [[nodiscard]] Status {
 public:
  Status() : code_(ErrorCode::kOk) {}
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "CODE: message" rendering for logs and error reports.
  std::string to_string() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status ok_status() { return Status::ok(); }

// Result<T>: either a value or an error Status. Modeled on absl::StatusOr.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(data_).is_ok() &&
           "Result must not be constructed from an OK status");
  }

  bool is_ok() const { return std::holds_alternative<T>(data_); }
  explicit operator bool() const { return is_ok(); }

  const T& value() const& {
    assert(is_ok());
    return std::get<T>(data_);
  }
  T& value() & {
    assert(is_ok());
    return std::get<T>(data_);
  }
  T&& value() && {
    assert(is_ok());
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(data_);
  }

  T value_or(T fallback) const {
    if (is_ok()) return std::get<T>(data_);
    return fallback;
  }

 private:
  std::variant<T, Status> data_;
};

#define SKY_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::sky::Status sky_status_tmp_ = (expr);        \
    if (!sky_status_tmp_.is_ok()) return sky_status_tmp_; \
  } while (false)

#define SKY_CONCAT_INNER_(a, b) a##b
#define SKY_CONCAT_(a, b) SKY_CONCAT_INNER_(a, b)

#define SKY_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.is_ok()) return tmp.status();           \
  lhs = std::move(tmp).value()

#define SKY_ASSIGN_OR_RETURN(lhs, expr) \
  SKY_ASSIGN_OR_RETURN_IMPL_(SKY_CONCAT_(sky_result_tmp_, __LINE__), lhs, expr)

}  // namespace sky
