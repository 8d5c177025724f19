// Diagnostics: error types shared by all vcflight components.
//
// The toolchain distinguishes three failure classes:
//  - CompileError: the input program is ill-formed (user error).
//  - InternalError: an invariant of the toolchain itself was violated (tool bug).
//  - ValidationError: a translation-validation check rejected a pass output
//    (potential miscompilation; the pipeline must not ship the result).
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>

namespace vc {

/// A position in a mini-C source file (1-based line/column; 0 means unknown).
struct SourceLoc {
  int line = 0;
  int column = 0;

  [[nodiscard]] std::string to_string() const;
};

/// The input program is ill-formed (syntax, type, or semantic constraint).
class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& message, SourceLoc loc = {});
  [[nodiscard]] SourceLoc loc() const { return loc_; }

 private:
  SourceLoc loc_;
};

/// A toolchain invariant was violated; indicates a bug in vcflight itself.
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& message);
};

/// A translation-validation check failed: the transformed program could not be
/// proved equivalent to its source. Carries the pass name for reporting.
class ValidationError : public std::runtime_error {
 public:
  ValidationError(std::string pass, const std::string& message);
  [[nodiscard]] const std::string& pass() const { return pass_; }

 private:
  std::string pass_;
};

/// Throws InternalError with `message` if `condition` is false. There is
/// deliberately no `const std::string&` overload: a composed message must be
/// built by a callable, so the passing path (the ILP pivot kernel checks
/// every arithmetic operation, `rtl::Function::validate` every instruction)
/// builds nothing.
void check(bool condition, const char* message);

/// Lazy-message overload: `make_message()` runs only when `condition` is
/// false, e.g. `check(ok, [&] { return "bad symbol '" + sym + "'"; })`.
template <typename MakeMessage>
  requires std::invocable<MakeMessage&>
void check(bool condition, MakeMessage&& make_message) {
  if (!condition) [[unlikely]]
    throw InternalError(std::string(make_message()));
}

}  // namespace vc
