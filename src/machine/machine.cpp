#include "machine/machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mach/semantics.hpp"
#include "support/strings.hpp"

namespace vc::machine {

using mach::Image;
using mach::MInstr;
using mach::MOp;

namespace {

std::uint32_t rotl32(std::uint32_t v, unsigned n) {
  n &= 31;
  return n == 0 ? v : (v << n) | (v >> (32 - n));
}

/// rlwinm mask: bits mb..me inclusive in big-endian bit numbering (0 = MSB),
/// wrapping when mb > me.
std::uint32_t rlwinm_mask(unsigned mb, unsigned me) {
  const std::uint32_t x = 0xFFFFFFFFu >> mb;
  const std::uint32_t y =
      me == 31 ? 0xFFFFFFFFu : ~(0xFFFFFFFFu >> (me + 1));
  return mb <= me ? (x & y) : (x | y);
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

double double_of(std::uint64_t b) {
  double d = 0;
  std::memcpy(&d, &b, sizeof d);
  return d;
}

/// The descriptor the image was compiled for (registry default when the
/// image predates target tags).
const mach::TargetDesc& desc_of(const mach::Image& image) {
  return mach::target_by_name(image.target.empty()
                                  ? mach::default_target_name()
                                  : image.target);
}

}  // namespace

Cache::Cache(mach::CacheConfig cfg)
    : cfg_(cfg), tags_(std::size_t{cfg.sets} * cfg.ways, ~0u) {}

void Cache::clear() { std::fill(tags_.begin(), tags_.end(), ~0u); }

bool Cache::access(std::uint32_t addr) {
  const std::uint32_t tag = cfg_.tag_of(addr);
  std::uint32_t* set =
      tags_.data() + std::size_t{cfg_.set_of(addr)} * cfg_.ways;
  std::uint32_t way = 0;
  while (way < cfg_.ways && set[way] != tag) ++way;
  const bool hit = way < cfg_.ways;
  // A hit moves its way to the front; a miss shifts the whole set down,
  // dropping the least-recently-used way.
  if (!hit) way = cfg_.ways - 1;
  std::copy_backward(set, set + way, set + way + 1);
  set[0] = tag;
  return hit;
}

Machine::Machine(const mach::Image& image)
    : image_(image),
      decoded_(image.words.size()),
      desc_(&desc_of(image)),
      config_(desc_->machine),
      icache_(config_.icache),
      dcache_(config_.dcache),
      pipe_(*desc_) {
  reset();
}

void Machine::reset() {
  data_ = image_.data_init;
  // Allow a little headroom beyond the initialised data for alignment.
  data_.resize(std::max<std::size_t>(data_.size(), 64), 0);
  stack_.assign(kStackBytes, 0);
  gpr_.fill(0);
  fpr_.fill(0.0);
  cr_ = 0;
  clear_caches();
  stats_ = ExecStats{};
}

void Machine::clear_caches() {
  icache_.clear();
  dcache_.clear();
  pipe_.reset();
}

const std::uint8_t* Machine::mem_at(std::uint32_t addr,
                                    std::uint32_t size) const {
  if (addr >= Image::kDataBase && addr + size <= Image::kDataBase + data_.size())
    return data_.data() + (addr - Image::kDataBase);
  const std::uint32_t stack_base = Image::kStackTop - kStackBytes;
  if (addr >= stack_base && addr + size <= Image::kStackTop)
    return stack_.data() + (addr - stack_base);
  throw MachineError("memory access outside data/stack segments: " +
                     hex32(addr));
}

std::uint8_t* Machine::mem_at_mut(std::uint32_t addr, std::uint32_t size) {
  return const_cast<std::uint8_t*>(mem_at(addr, size));
}

std::uint32_t Machine::read_u32(std::uint32_t addr) const {
  const std::uint8_t* p = mem_at(addr, 4);
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

std::uint64_t Machine::read_u64(std::uint32_t addr) const {
  return (std::uint64_t(read_u32(addr)) << 32) | read_u32(addr + 4);
}

void Machine::write_u32(std::uint32_t addr, std::uint32_t value) {
  std::uint8_t* p = mem_at_mut(addr, 4);
  p[0] = static_cast<std::uint8_t>(value >> 24);
  p[1] = static_cast<std::uint8_t>(value >> 16);
  p[2] = static_cast<std::uint8_t>(value >> 8);
  p[3] = static_cast<std::uint8_t>(value);
}

void Machine::write_u64(std::uint32_t addr, std::uint64_t value) {
  write_u32(addr, static_cast<std::uint32_t>(value >> 32));
  write_u32(addr + 4, static_cast<std::uint32_t>(value));
}

minic::Value Machine::call(const std::string& fn_name,
                           const std::vector<minic::Value>& args,
                           minic::Type ret_type) {
  auto it = image_.fn_entry.find(fn_name);
  if (it == image_.fn_entry.end())
    throw MachineError("unknown function '" + fn_name + "'");

  pipe_.reset();
  stats_.cycles = 0;
  stats_.instructions = 0;
  stats_.dcache_reads = 0;
  stats_.dcache_writes = 0;
  stats_.dcache_read_misses = 0;
  stats_.dcache_write_misses = 0;
  stats_.ifetch_line_misses = 0;
  stats_.taken_branches = 0;

  if (monitor_ != nullptr) monitor_->begin_call();

  gpr_[desc_->stack_ptr] = kEntryR1;
  gpr_[desc_->data_base] = Image::kDataBase;
  int next_gpr = desc_->first_arg_gpr;
  int next_fpr = desc_->first_arg_fpr;
  for (const auto& a : args) {
    if (a.type == minic::Type::I32) {
      if (next_gpr >= desc_->first_arg_gpr + desc_->n_arg_gprs)
        throw MachineError("too many integer arguments");
      gpr_[next_gpr++] = static_cast<std::uint32_t>(a.i);
    } else {
      if (next_fpr >= desc_->first_arg_fpr + desc_->n_arg_fprs)
        throw MachineError("too many float arguments");
      fpr_[next_fpr++] = a.f;
    }
  }

  run(it->second);

  if (ret_type == minic::Type::I32)
    return minic::Value::of_i32(
        static_cast<std::int32_t>(gpr_[desc_->ret_gpr]));
  return minic::Value::of_f64(fpr_[desc_->ret_fpr]);
}

const Machine::Decoded& Machine::predecode(std::uint32_t pc) {
  Decoded d;
  d.ins = image_.fetch(pc);  // throws on an out-of-segment pc or a bad word
  d.ready = true;
  d.is_memory = mach::is_memory_op(d.ins.op);
  d.is_store = mach::is_store(d.ins.op);
  d.is_branch = mach::is_branch(d.ins.op);
  mach::IssueModel::resources(d.ins, d.reads, &d.n_reads, d.writes,
                              &d.n_writes);
  Decoded& slot = decoded_[(pc - Image::kCodeBase) / 4];
  slot = d;
  return slot;
}

void Machine::run(std::uint32_t entry) {
  std::uint32_t pc = entry;
  std::uint64_t executed = 0;
  std::uint32_t last_fetch_line = 0xFFFFFFFF;
  // The current straight-line run starts at `run_start` with the pipeline
  // drained (pipe_ was reset, or the previous run ended in a branch).
  std::uint32_t run_start = entry;
  misses_.clear();

  while (pc != Image::kStopAddr) {
    if (++executed > fuel_) {
      // Keep the stats consistent with the work actually done before
      // throwing, so diagnostics of a truncated run are not garbage — but
      // the run is NOT complete and its stats are NOT observations.
      replay(run_start, (pc - run_start) / 4);
      stats_.cycles = pipe_.current_cycle();
      throw FuelExhausted("instruction budget exhausted after " +
                          std::to_string(fuel_) +
                          " instruction(s): execution truncated");
    }
    const Decoded& d = fetch(pc);

    // Instruction fetch through the I-cache, one lookup per line entered.
    std::uint32_t fetch_stall = 0;
    const std::uint32_t line = config_.icache.line_addr(pc);
    if (line != last_fetch_line) {
      last_fetch_line = line;
      if (!icache_.access(pc)) {
        fetch_stall = config_.miss_penalty;
        ++stats_.ifetch_line_misses;
      }
    }

    // Architectural execution (also yields the data address and the
    // taken flag).
    next_pc_ = pc + 4;
    branch_taken_ = false;
    if (monitor_ != nullptr) monitor_->before_execute(pc, *this);
    const std::uint32_t mem_addr = execute(d.ins, pc);

    // Micro-architectural accounting.
    std::uint32_t extra_mem = 0;
    if (d.is_memory) {
      const bool hit = dcache_.access(mem_addr);
      if (d.is_store) {
        ++stats_.dcache_writes;
        if (!hit) {
          ++stats_.dcache_write_misses;
          extra_mem = config_.miss_penalty;
        }
      } else {
        ++stats_.dcache_reads;
        if (!hit) {
          ++stats_.dcache_read_misses;
          extra_mem = config_.miss_penalty;
        }
      }
    }
    if ((fetch_stall | extra_mem) != 0)
      misses_.push_back({pc, fetch_stall, extra_mem});
    ++stats_.instructions;

    if (d.is_branch) {
      // The run [run_start, pc] ends here and drains the pipeline. Only
      // branch ops leave pc + 4, so the run is exactly those words, and
      // from a drained pipeline its cycles depend on nothing but them and
      // their stalls: an all-hit run is charged the cycles its first
      // all-hit execution recorded.
      Decoded& head = decoded_[(run_start - Image::kCodeBase) / 4];
      if (misses_.empty() && head.run_cycles != 0) {
        pipe_.add_stall(head.run_cycles);
      } else {
        const std::uint64_t start = pipe_.current_cycle();
        replay(run_start, (pc - run_start) / 4 + 1);
        if (misses_.empty()) head.run_cycles = pipe_.current_cycle() - start;
        misses_.clear();
      }
      if (branch_taken_) {
        pipe_.add_stall(config_.taken_branch_penalty);
        ++stats_.taken_branches;
        last_fetch_line = 0xFFFFFFFF;  // refetch after redirect
      }
      run_start = next_pc_;
    }
    if (monitor_ != nullptr) monitor_->after_step(pc, next_pc_, d.is_branch);
    pc = next_pc_;
  }
  pipe_.drain();
  stats_.cycles = pipe_.current_cycle();
}

void Machine::replay(std::uint32_t first, std::uint32_t count) {
  const Decoded* d = decoded_.data() + (first - Image::kCodeBase) / 4;
  auto miss = misses_.cbegin();
  for (std::uint32_t pc = first; count > 0; --count, ++d, pc += 4) {
    std::uint32_t fetch_stall = 0;
    std::uint32_t extra_mem = 0;
    if (miss != misses_.cend() && miss->pc == pc) {
      fetch_stall = miss->fetch_stall;
      extra_mem = miss->extra_mem;
      ++miss;
    }
    pipe_.issue(d->ins, d->reads, d->n_reads, d->writes, d->n_writes,
                extra_mem, fetch_stall);
  }
  pipe_.drain();
}

/// mach::step's concrete domain: u32 GPRs, double FPRs and 4-bit CR fields
/// over the machine's register files and memory.
struct Machine::Concrete {
  using U = std::uint32_t;

  Machine& mc;
  const MInstr& m;
  U pc;
  U mem_addr = 0;  // the last effective address

  static std::int32_t s32(U v) { return static_cast<std::int32_t>(v); }
  static U field(bool lt, bool gt, bool eq, bool so) {
    return (lt ? 8u : 0u) | (gt ? 4u : 0u) | (eq ? 2u : 0u) | (so ? 1u : 0u);
  }

  U gpr(int r) const { return mc.gpr_[static_cast<std::size_t>(r)]; }
  double fpr(int r) const { return mc.fpr_[static_cast<std::size_t>(r)]; }
  U crf(int f) const { return mc.cr_ >> (28 - 4 * f) & 0xFu; }
  void set_gpr(int r, U v) { mc.gpr_[static_cast<std::size_t>(r)] = v; }
  void set_fpr(int r, double v) { mc.fpr_[static_cast<std::size_t>(r)] = v; }
  void set_crf(int f, U v) {
    const int shift = 28 - 4 * f;
    mc.cr_ = (mc.cr_ & ~(0xFu << shift)) | v << shift;
  }
  U imm() const { return static_cast<U>(m.imm); }

  static U lis(U i) { return i << 16; }
  static U lui(U i) { return i << 12; }
  static U add(U a, U b) { return a + b; }
  static U sub(U a, U b) { return a - b; }
  static U mul(U a, U b) { return a * b; }
  U div(U a, U b) const {
    if (b == 0) throw MachineError("divw by zero at " + hex32(pc));
    if (a == 0x80000000u && b == ~0u) return a;  // overflow wraps
    return static_cast<U>(s32(a) / s32(b));
  }
  U rem(U a, U b) const {
    if (b == 0) throw MachineError("rem by zero at " + hex32(pc));
    if (a == 0x80000000u && b == ~0u) return 0;  // overflow: remainder 0
    return static_cast<U>(s32(a) % s32(b));
  }
  static U and_(U a, U b) { return a & b; }
  static U or_(U a, U b) { return a | b; }
  static U xor_(U a, U b) { return a ^ b; }
  static U nor(U a, U b) { return ~(a | b); }
  static U neg(U a) { return 0u - a; }
  static U slw(U a, U n) { return (n & 0x3F) >= 32 ? 0 : a << (n & 0x3F); }
  static U srw(U a, U n) { return (n & 0x3F) >= 32 ? 0 : a >> (n & 0x3F); }
  static U sraw(U a, U n) {
    return static_cast<U>(s32(a) >> std::min<U>(n & 0x3F, 31));
  }
  static U sll(U a, U n) { return a << (n & 31); }
  static U srl(U a, U n) { return a >> (n & 31); }
  static U sra(U a, U n) { return static_cast<U>(s32(a) >> (n & 31)); }
  static U rlwinm(U x, unsigned sh, unsigned mb, unsigned me) {
    return rotl32(x, sh) & rlwinm_mask(mb, me);
  }
  static U slt(U a, U b) { return s32(a) < s32(b) ? 1 : 0; }
  static U sltu(U a, U b) { return a < b ? 1 : 0; }
  static U cmp(U a, U b) {
    return field(s32(a) < s32(b), s32(a) > s32(b), a == b, false);
  }
  static U fcmp(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return field(false, false, false, true);
    return field(a < b, a > b, a == b, false);
  }
  static U cror(U old, U a, U b, int bd, int ba, int bb) {
    const U bit = (a >> (3 - ba) | b >> (3 - bb)) & 1u;
    return (old & ~(8u >> bd)) | bit << (3 - bd);
  }
  U mfcr() const { return mc.cr_; }
  static double fadd(double a, double b) { return a + b; }
  static double fsub(double a, double b) { return a - b; }
  static double fmul(double a, double b) { return a * b; }
  static double fdiv(double a, double b) { return a / b; }
  static double fneg(double a) { return -a; }
  static double fabs(double a) { return std::fabs(a); }
  static U fcti(double a) {
    return static_cast<U>(
        minic::eval_unop(minic::UnOp::F2I, minic::Value::of_f64(a)).i);
  }
  static double icvf(U a) { return static_cast<double>(s32(a)); }
  static U feq(double a, double b) { return a == b ? 1 : 0; }
  static U flt(double a, double b) { return a < b ? 1 : 0; }
  static U fle(double a, double b) { return a <= b ? 1 : 0; }
  U ea(U base, U offset) { return mem_addr = base + offset; }
  U load4(U a) const { return mc.read_u32(a); }
  double load8(U a) const { return double_of(mc.read_u64(a)); }
  void store4(U a, U v) { mc.write_u32(a, v); }
  void store8(U a, double v) { mc.write_u64(a, bits_of(v)); }
  static bool eq(U a, U b) { return a == b; }
  static bool ne(U a, U b) { return a != b; }
  static bool lt(U a, U b) { return s32(a) < s32(b); }
  static bool ge(U a, U b) { return s32(a) >= s32(b); }
  static bool crbit(U field, int bit, bool expect) {
    return ((field >> (3 - bit % 4) & 1u) != 0) == expect;
  }
  void branch_if(bool taken) {
    if (taken) jump();
  }
  void jump() {
    mc.next_pc_ = pc + static_cast<U>(m.disp) * 4;
    mc.branch_taken_ = true;
  }
  // The harness runs single functions; returning from the outermost frame
  // jumps to the stop address.
  void ret() {
    mc.next_pc_ = Image::kStopAddr;
    mc.branch_taken_ = true;
  }
};

std::uint32_t Machine::execute(const MInstr& ins, std::uint32_t pc) {
  Concrete d{*this, ins, pc};
  mach::step(d, ins);
  // The hardwired zero register (when the target has one) absorbs writes.
  if (desc_->zero_gpr >= 0)
    gpr_[static_cast<std::size_t>(desc_->zero_gpr)] = 0;
  return d.mem_addr;
}

void Machine::arm_monitor(const MonitorSpec& spec, MonitorMode mode) {
  monitor_ = mode == MonitorMode::Off
                 ? nullptr
                 : std::make_unique<ExecutionMonitor>(spec, mode);
}

minic::Value Machine::read_global(const std::string& name, std::size_t index,
                                  minic::Type type) const {
  const std::uint32_t base = image_.global_addr.at(name);
  if (type == minic::Type::F64)
    return minic::Value::of_f64(
        double_of(read_u64(base + static_cast<std::uint32_t>(index) * 8)));
  return minic::Value::of_i32(static_cast<std::int32_t>(
      read_u32(base + static_cast<std::uint32_t>(index) * 4)));
}

void Machine::write_global(const std::string& name, std::size_t index,
                           minic::Value v) {
  const std::uint32_t base = image_.global_addr.at(name);
  if (v.type == minic::Type::F64)
    write_u64(base + static_cast<std::uint32_t>(index) * 8, bits_of(v.f));
  else
    write_u32(base + static_cast<std::uint32_t>(index) * 4,
              static_cast<std::uint32_t>(v.i));
}

}  // namespace vc::machine
