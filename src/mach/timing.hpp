// Timing model of the target microarchitecture, shared between the
// cycle-level simulator (src/machine) and the static WCET analyzer
// (src/wcet), so that both sides agree on the issue rules by construction.
//
// The model is an in-order pipeline parameterized by the target descriptor:
//   - up to `issue_width` instructions issue per cycle, in program order;
//   - at most one LSU (memory), one FPU, one BPU (branch/CR) instruction per
//     cycle; two IU instructions may pair only if the descriptor allows
//     pairing and the second is simple (single-cycle);
//   - results become available `latency` cycles after issue; consumers stall;
//   - all units are pipelined except the dividers (divw, fdiv block their
//     unit until complete);
//   - every control-transfer instruction (b, bc, blr) completes all in-flight
//     instructions before the next instruction issues, and a *taken* branch
//     additionally pays a fixed refill penalty.
//
// The last rule is the documented substitution for the real 755's more
// aggressive front end: it implements the "time-predictable execution mode"
// of Rochange & Sainrat (discussed in the PPES'11 proceedings that contain
// our paper), making basic-block execution times composable. That is what
// lets the WCET analyzer compute per-block costs that are safe regardless of
// pipeline history, at some cost in throughput for every configuration alike.
#pragma once

#include <array>
#include <cstdint>

#include "mach/isa.hpp"

namespace vc::mach {

struct TargetDesc;

/// L1 cache geometry (the MPC755 L1: 32 KiB, 8-way, 32-byte lines). The
/// replacement policy is LRU (documented substitution for the 755's PLRU).
struct CacheConfig {
  std::uint32_t sets = 128;
  std::uint32_t ways = 8;
  std::uint32_t line_bytes = 32;

  [[nodiscard]] std::uint32_t set_of(std::uint32_t addr) const {
    return (addr / line_bytes) % sets;
  }
  [[nodiscard]] std::uint32_t tag_of(std::uint32_t addr) const {
    return addr / line_bytes / sets;
  }
  [[nodiscard]] std::uint32_t line_addr(std::uint32_t addr) const {
    return addr / line_bytes * line_bytes;
  }
};

struct MachineConfig {
  CacheConfig icache;
  CacheConfig dcache;
  std::uint32_t miss_penalty = 30;         // cycles per line fill from memory
  // Front-end refill after a taken branch. Calibrated at the high end of the
  // 755's redirect cost: control transfers cost the same in every compiler
  // configuration (the CFG is identical), so this models the large
  // configuration-independent share of real WCETs (dispatch, redirects,
  // analysis pessimism at control joins).
  std::uint32_t taken_branch_penalty = 6;
};

enum class Unit : std::uint8_t { IU, LSU, FPU, BPU };

/// In-order issue bookkeeping over the descriptor's op table. Feed
/// instructions in program order via `issue`; query `current_cycle` at any
/// time. The same code runs in the simulator (with dynamically observed
/// cache outcomes) and in the WCET block timer (with statically classified
/// worst-case outcomes).
class IssueModel {
 public:
  /// Registers: 0..31 GPR, 32..63 FPR, 64..71 CR fields, 72 whole-CR.
  static constexpr int kCrBase = 64;
  static constexpr int kWholeCr = 72;
  static constexpr int kNumResources = 73;
  /// Length of the longest read or write list `resources` produces (Mfcr:
  /// 8 CR-field reads). Callers size their stack buffers with it; timing.cpp
  /// checks it against the op table at compile time.
  static constexpr int kMaxResourcesPerInstr = 8;

  explicit IssueModel(const TargetDesc& desc) : desc_(&desc) {}

  void reset();

  /// Accounts one instruction. `reads`/`writes` list resource indices;
  /// `extra_mem_cycles` extends the latency of a memory op by a cache-miss
  /// penalty; `fetch_stall` delays issue by an instruction-fetch stall.
  /// Returns the cycle at which the instruction issued.
  std::uint64_t issue(const MInstr& ins, const int* reads, int n_reads,
                      const int* writes, int n_writes,
                      std::uint32_t extra_mem_cycles,
                      std::uint32_t fetch_stall);

  /// Completes all in-flight work (executed after any branch instruction).
  /// Afterwards every resource and unit is ready by `current_cycle()` and no
  /// issue slot is open, so the cycles any sequence takes from here depend
  /// only on the sequence, not on the cycle or the history: the state is
  /// translation-invariant. The simulator relies on it to charge a repeated
  /// all-hit straight-line run the cycles its first execution took.
  void drain();

  /// Adds dead cycles (taken-branch refill). From a drained state this is
  /// the whole state change of a sequence that takes `cycles` and drains.
  void add_stall(std::uint64_t cycles);

  [[nodiscard]] std::uint64_t current_cycle() const { return cycle_; }

  /// Resource read/write sets of an instruction, shared by both clients and
  /// derived from the op table's operand roles (mach/isa.hpp). Fills
  /// `reads`/`writes` (size >= kMaxResourcesPerInstr each) and their counts.
  static void resources(const MInstr& ins, int* reads, int* n_reads,
                        int* writes, int* n_writes);

 private:
  const TargetDesc* desc_;
  std::uint64_t cycle_ = 0;
  std::array<std::uint64_t, kNumResources> ready_{};
  // Issue-slot state for the cycle `slot_cycle_`.
  std::uint64_t slot_cycle_ = ~0ull;
  int slots_used_ = 0;
  bool unit_used_[4] = {false, false, false, false};
  bool second_iu_used_ = false;
  std::uint64_t unit_busy_until_[4] = {0, 0, 0, 0};  // divider blocking
};

}  // namespace vc::mach
