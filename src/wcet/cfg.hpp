// Control-flow reconstruction from the binary (the first phase of an
// aiT-style analyzer, cf. Gebhard et al., Fig. 1, in the same proceedings).
//
// Decodes the function's code words, finds leaders (branch targets and
// fall-through points after conditional branches), forms basic blocks, and
// computes the natural-loop forest needed by the path analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mach/program.hpp"

namespace vc::wcet {

/// A named analysis failure: a loop without any usable bound, an unknown
/// function, an IPET system the solver or its checker rejects.
class WcetError : public std::runtime_error {
 public:
  explicit WcetError(const std::string& message)
      : std::runtime_error(message) {}
};

/// The analyzed function is not in the image; the message lists the
/// functions the image does define.
class UnknownFunctionError : public WcetError {
 public:
  explicit UnknownFunctionError(const std::string& message)
      : WcetError(message) {}
};

/// The code range [entry, end) of `fn_name` in the image — the one place
/// the analyzer resolves a function name. Throws UnknownFunctionError.
std::pair<std::uint32_t, std::uint32_t> function_range(
    const mach::Image& image, const std::string& fn_name);

struct MachineBlock {
  std::uint32_t start = 0;  // address of first instruction
  std::vector<mach::MInstr> instrs;
  std::vector<std::uint32_t> succ_addrs;  // successor block start addresses
  std::vector<int> succs;                 // successor block ids
  std::vector<int> preds;

  [[nodiscard]] std::uint32_t end() const {
    return start + static_cast<std::uint32_t>(instrs.size()) * 4;
  }
};

struct Loop {
  int header = 0;               // block id
  std::vector<int> blocks;      // member block ids (includes header)
  int parent = -1;              // enclosing loop index, -1 for top level
  std::vector<int> children;
  /// Back-edge sources (latches) and exit edges (from, to) leaving the loop.
  std::vector<int> latches;
  std::vector<std::pair<int, int>> exits;
};

struct Cfg {
  std::uint32_t entry_addr = 0;
  std::vector<MachineBlock> blocks;  // blocks[0] is the entry
  std::vector<Loop> loops;           // inner loops appear after their parents
  std::vector<int> loop_of;          // innermost loop index per block (-1 none)

  [[nodiscard]] int block_at(std::uint32_t addr) const;  // -1 if not a leader
  [[nodiscard]] int block_containing(std::uint32_t addr) const;

  /// True if `inner` equals `outer` or is nested (transitively) inside it.
  [[nodiscard]] bool loop_within(int inner, int outer) const;
};

/// Reconstructs the CFG of `fn_name` from the image. Throws
/// UnknownFunctionError for a name the image does not define, and
/// CompileError on malformed code (a branch outside the function, a block
/// falling through into a leader). Irreducible flow is not rejected here:
/// the structural fold reports it as a cycle in a collapsed region.
Cfg build_cfg(const mach::Image& image, const std::string& fn_name);

}  // namespace vc::wcet
