// Concrete RTL executor.
//
// Runs an RTL function on concrete values with the same arithmetic as the
// mini-C interpreter. Used by tests to localize miscompilations: if
// interpreter == RTL but RTL != machine, the bug is in the backend; if
// interpreter != RTL, it is in lowering or an optimization pass.
//
// Globals are interned: the constructor assigns each global a dense
// SymbolId and call() resolves every global-accessing instruction's name to
// its id once per call, so the execution loop indexes a dense
// vector<vector<Value>> instead of probing a map<string, ...> per executed
// load/store (the fleet's exec phase runs millions of those).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minic/interp.hpp"
#include "rtl/rtl.hpp"
#include "support/symtab.hpp"

namespace vc::rtl {

class Executor {
 public:
  /// Globals are initialised from `program` exactly like the interpreter.
  explicit Executor(const minic::Program& program);

  void reset_globals();

  minic::Value call(const Function& fn,
                    const std::vector<minic::Value>& args);

  [[nodiscard]] minic::Value read_global(const std::string& name,
                                         std::size_t index = 0) const;
  void write_global(const std::string& name, std::size_t index,
                    minic::Value v);

  /// By-id cell access for callers that touch every cell of every global
  /// between calls: resolve each name once with `global_id`, then index.
  /// Ids are dense in `program.globals` declaration order, so two executors
  /// of one program agree on them.
  [[nodiscard]] SymbolId global_id(const std::string& name) const {
    return global_syms_.find(name);
  }
  [[nodiscard]] minic::Value read_cell(SymbolId sym, std::size_t index) const;
  void write_cell(SymbolId sym, std::size_t index, minic::Value v);

  /// Annotation events observed during the last call.
  [[nodiscard]] const std::vector<minic::AnnotEvent>& annotations() const {
    return annotations_;
  }

  /// RTL instructions executed during the last call.
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  const minic::Program& program_;
  SymbolTable global_syms_;                         // name -> dense id
  std::vector<std::vector<minic::Value>> globals_;  // indexed by SymbolId
  std::vector<minic::AnnotEvent> annotations_;
  std::uint64_t steps_ = 0;
  std::uint64_t fuel_ = 100'000'000;
};

}  // namespace vc::rtl
