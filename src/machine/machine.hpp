// Cycle-level simulator of the target machine.
//
// Executes linked images instruction by instruction with big-endian memory,
// L1 instruction/data caches (LRU), and the shared issue-model timing
// (mach/timing.hpp), all parameterized by the target descriptor the image
// names (mach/target.hpp) — the same simulator runs PPC and RV32 code.
// Produces both architectural results (registers, memory) and
// micro-architectural statistics (cycles, cache reads/writes/misses) — the
// raw material for the paper's Table 1 and the "observed execution time"
// side of the WCET soundness property tests.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/monitor.hpp"
#include "minic/interp.hpp"
#include "mach/program.hpp"
#include "mach/target.hpp"
#include "mach/timing.hpp"

namespace vc::machine {

class MachineError : public std::runtime_error {
 public:
  explicit MachineError(const std::string& message)
      : std::runtime_error(message) {}
};

/// The per-call instruction budget ran out. Distinct from MachineError so
/// harnesses can tell a truncated execution from a faulting one — stats from
/// a truncated run are NOT observations (fleet.cpp discards them wholesale);
/// recording them would make WCET bounds look sound against an
/// under-observed baseline.
class FuelExhausted : public MachineError {
 public:
  explicit FuelExhausted(const std::string& message) : MachineError(message) {}
};

/// An N-way set-associative LRU cache model (tags only).
class Cache {
 public:
  explicit Cache(mach::CacheConfig cfg);

  void clear();
  /// True on hit; updates LRU state either way (misses allocate).
  bool access(std::uint32_t addr);

 private:
  mach::CacheConfig cfg_;
  // One flat `sets × ways` tag array; each set's ways are ordered
  // most-recently-used first, and an empty way holds ~0.
  std::vector<std::uint32_t> tags_;
};

struct ExecStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dcache_reads = 0;
  std::uint64_t dcache_writes = 0;
  std::uint64_t dcache_read_misses = 0;
  std::uint64_t dcache_write_misses = 0;
  std::uint64_t ifetch_line_misses = 0;
  std::uint64_t taken_branches = 0;
};

class Machine : private CpuView {
 public:
  /// Runs with the machine configuration (caches, penalties) of the image's
  /// target descriptor.
  explicit Machine(const mach::Image& image);

  /// Reinitializes data memory from the image, clears registers and caches.
  void reset();

  /// Clears only the caches (to model an unknown initial cache state between
  /// runs without losing global data — used by WCET soundness tests).
  void clear_caches();

  /// Runs `fn_name` with `args` marshalled per the target's calling
  /// convention. Returns the result read from the return registers.
  minic::Value call(const std::string& fn_name,
                    const std::vector<minic::Value>& args,
                    minic::Type ret_type);

  [[nodiscard]] const ExecStats& stats() const { return stats_; }

  /// Direct global access for tests/harnesses (big-endian memory).
  [[nodiscard]] minic::Value read_global(const std::string& name,
                                         std::size_t index,
                                         minic::Type type) const;
  void write_global(const std::string& name, std::size_t index,
                    minic::Value v);

  /// Architectural registers, for harnesses that set up and inspect single
  /// instructions. call() still seeds the stack pointer, the data base and
  /// the argument registers over what set_registers stored.
  struct Registers {
    std::array<std::uint32_t, 32> gpr{};
    std::array<double, 32> fpr{};
    std::uint32_t cr = 0;
  };
  [[nodiscard]] Registers registers() const { return {gpr_, fpr_, cr_}; }
  void set_registers(const Registers& r) {
    gpr_ = r.gpr;
    fpr_ = r.fpr;
    cr_ = r.cr;
  }

  /// Instruction budget per call (runaway guard). Exhaustion throws
  /// FuelExhausted, never a plain MachineError.
  void set_fuel(std::uint64_t fuel) { fuel_ = fuel; }

  /// Arms the execution monitor: every subsequent step is checked against
  /// `spec` at the given mode (monitor.hpp). The spec must outlive the
  /// armed machine. Violations surface as MonitorError from call().
  void arm_monitor(const MonitorSpec& spec, MonitorMode mode);
  /// The armed monitor (step counter lives there); nullptr when off.
  [[nodiscard]] const ExecutionMonitor* monitor() const {
    return monitor_.get();
  }

 private:
  std::uint32_t read_u32(std::uint32_t addr) const;
  std::uint64_t read_u64(std::uint32_t addr) const;
  void write_u32(std::uint32_t addr, std::uint32_t value);
  void write_u64(std::uint32_t addr, std::uint64_t value);
  const std::uint8_t* mem_at(std::uint32_t addr, std::uint32_t size) const;
  std::uint8_t* mem_at_mut(std::uint32_t addr, std::uint32_t size);

  /// One code word as `run` consumes it: the decoded instruction plus the
  /// per-step facts derived from it, computed once per Machine.
  struct Decoded {
    mach::MInstr ins;
    bool ready = false;  // filled on first fetch of the word
    bool is_memory = false;
    bool is_store = false;
    bool is_branch = false;
    // Cycles of the straight-line run that starts at this word, recorded
    // the first time the run executes with every cache access a hit (0: not
    // yet recorded; a run takes at least one cycle).
    std::uint64_t run_cycles = 0;
    int n_reads = 0;
    int n_writes = 0;
    int reads[mach::IssueModel::kMaxResourcesPerInstr] = {};
    int writes[mach::IssueModel::kMaxResourcesPerInstr] = {};
  };

  /// The decoded word at `pc`. Decodes lazily, so an invalid word raises
  /// decode's CompileError only if it is executed, and a pc outside the
  /// code segment raises Image::fetch's InternalError.
  const Decoded& fetch(std::uint32_t pc) {
    const std::uint32_t index = (pc - mach::Image::kCodeBase) / 4;
    if (index < decoded_.size() && pc % 4 == 0 && decoded_[index].ready)
      return decoded_[index];
    return predecode(pc);
  }
  const Decoded& predecode(std::uint32_t pc);

  /// Executes from `entry` until the return to Image::kStopAddr. Caches
  /// are accessed as each word executes; the issue model times each
  /// straight-line run (from a drained pipeline up to and including its
  /// branch) when the branch is reached.
  void run(std::uint32_t entry);
  /// Issues the `count` words from `first` through the issue model with
  /// the stalls logged in `misses_`, then drains the pipeline.
  void replay(std::uint32_t first, std::uint32_t count);
  /// Executes `ins` at `pc` through mach::step over the Concrete domain;
  /// returns the data address a memory op accessed.
  std::uint32_t execute(const mach::MInstr& ins, std::uint32_t pc);
  struct Concrete;

  // CpuView: live architectural reads for the armed monitor. Stack slots are
  // addressed from the entry r1 the calling convention pins in call().
  [[nodiscard]] std::uint32_t gpr(int index) const override {
    return gpr_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] double fpr(int index) const override {
    return fpr_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] std::uint32_t stack_u32(std::int32_t offset) const override {
    return read_u32(kEntryR1 + static_cast<std::uint32_t>(offset));
  }
  [[nodiscard]] std::uint64_t stack_u64(std::int32_t offset) const override {
    return read_u64(kEntryR1 + static_cast<std::uint32_t>(offset));
  }

  const mach::Image& image_;
  std::vector<Decoded> decoded_;  // one entry per word of image_.words
  const mach::TargetDesc* desc_;
  mach::MachineConfig config_;
  Cache icache_;
  Cache dcache_;
  mach::IssueModel pipe_;
  ExecStats stats_;
  /// The cache misses of the current run, in program order: the I-fetch
  /// and memory stalls of each word that missed. Reused across calls.
  struct Miss {
    std::uint32_t pc = 0;
    std::uint32_t fetch_stall = 0;
    std::uint32_t extra_mem = 0;
  };
  std::vector<Miss> misses_;

  std::array<std::uint32_t, 32> gpr_{};
  std::array<double, 32> fpr_{};
  std::uint32_t cr_ = 0;  // PowerPC numbering: CR bit i == (cr_ >> (31-i)) & 1
  std::uint32_t next_pc_ = 0;
  bool branch_taken_ = false;

  std::vector<std::uint8_t> data_;   // at Image::kDataBase
  std::vector<std::uint8_t> stack_;  // below Image::kStackTop
  static constexpr std::uint32_t kStackBytes = 1 << 16;
  // The r1 value call() seeds; the frame base stack-slot MLocs refer to.
  static constexpr std::uint32_t kEntryR1 = mach::Image::kStackTop - 64;

  std::uint64_t fuel_ = 200'000'000;
  std::unique_ptr<ExecutionMonitor> monitor_;
};

}  // namespace vc::machine
