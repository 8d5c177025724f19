#include "support/diagnostics.hpp"

namespace vc {

std::string SourceLoc::to_string() const {
  if (line == 0) return "<unknown>";
  return std::to_string(line) + ":" + std::to_string(column);
}

CompileError::CompileError(const std::string& message, SourceLoc loc)
    : std::runtime_error(loc.line != 0 ? loc.to_string() + ": " + message : message),
      loc_(loc) {}

InternalError::InternalError(const std::string& message)
    : std::logic_error("internal error: " + message) {}

ValidationError::ValidationError(std::string pass, const std::string& message)
    : std::runtime_error("validation failed [" + pass + "]: " + message),
      pass_(std::move(pass)) {}

void check(bool condition, const char* message) {
  if (!condition) throw InternalError(message);
}

}  // namespace vc
