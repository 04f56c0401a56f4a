#include "common/status.h"

namespace sky {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kAlreadyExists: return "ALREADY_EXISTS";
    case ErrorCode::kConstraintPrimaryKey: return "PRIMARY_KEY_VIOLATION";
    case ErrorCode::kConstraintForeignKey: return "FOREIGN_KEY_VIOLATION";
    case ErrorCode::kConstraintCheck: return "CHECK_VIOLATION";
    case ErrorCode::kConstraintNotNull: return "NOT_NULL_VIOLATION";
    case ErrorCode::kTypeMismatch: return "TYPE_MISMATCH";
    case ErrorCode::kParseError: return "PARSE_ERROR";
    case ErrorCode::kIoError: return "IO_ERROR";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kAborted: return "ABORTED";
    case ErrorCode::kDeadlockDetected: return "DEADLOCK_DETECTED";
    case ErrorCode::kUnimplemented: return "UNIMPLEMENTED";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string out(error_code_name(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace sky
