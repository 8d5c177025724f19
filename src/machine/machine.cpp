#include "machine/machine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

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
    : Machine(image, desc_of(image).machine) {}

Machine::Machine(const mach::Image& image, mach::MachineConfig config)
    : image_(image),
      decoded_(image.words.size()),
      desc_(&desc_of(image)),
      config_(config),
      icache_(config.icache),
      dcache_(config.dcache),
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
  d.is_x_form = mach::is_x_form(d.ins.op);
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

  while (pc != Image::kStopAddr) {
    if (++executed > fuel_) {
      // Keep the stats consistent with the work actually done before
      // throwing, so diagnostics of a truncated run are not garbage — but
      // the run is NOT complete and its stats are NOT observations.
      pipe_.drain();
      stats_.cycles = pipe_.current_cycle();
      throw FuelExhausted("instruction budget exhausted after " +
                          std::to_string(fuel_) +
                          " instruction(s): execution truncated");
    }
    const Decoded& d = fetch(pc);
    const MInstr& ins = d.ins;

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

    // Architectural execution (also computes data addresses/taken flags).
    next_pc_ = pc + 4;
    branch_taken_ = false;
    std::uint32_t mem_addr = 0;
    if (d.is_memory)
      mem_addr = gpr_[ins.ra] + (d.is_x_form
                                     ? gpr_[ins.rb]
                                     : static_cast<std::uint32_t>(ins.imm));
    if (monitor_ != nullptr) monitor_->before_execute(pc, *this);
    execute(ins, pc);

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

    pipe_.issue(ins, d.reads, d.n_reads, d.writes, d.n_writes, extra_mem,
                fetch_stall);
    ++stats_.instructions;

    if (d.is_branch) {
      pipe_.drain();
      if (branch_taken_) {
        pipe_.add_stall(config_.taken_branch_penalty);
        ++stats_.taken_branches;
        last_fetch_line = 0xFFFFFFFF;  // refetch after redirect
      }
    }
    if (monitor_ != nullptr) monitor_->after_step(pc, next_pc_, d.is_branch);
    pc = next_pc_;
  }
  pipe_.drain();
  stats_.cycles = pipe_.current_cycle();
}

void Machine::execute(const MInstr& ins, std::uint32_t pc) {
  auto set_cr_field = [&](int crf, bool lt, bool gt, bool eq, bool so) {
    const int shift = 28 - crf * 4;
    cr_ &= ~(0xFu << shift);
    std::uint32_t bits = 0;
    if (lt) bits |= 8;
    if (gt) bits |= 4;
    if (eq) bits |= 2;
    if (so) bits |= 1;
    cr_ |= bits << shift;
  };
  auto cr_bit = [&](int bit) { return (cr_ >> (31 - bit)) & 1u; };

  const auto ra = gpr_[ins.ra];
  const auto rb = gpr_[ins.rb];

  switch (ins.op) {
    case MOp::Li:
      gpr_[ins.rd] = static_cast<std::uint32_t>(ins.imm);
      break;
    case MOp::Lis:
      gpr_[ins.rd] = static_cast<std::uint32_t>(ins.imm) << 16;
      break;
    case MOp::Ori:
      gpr_[ins.rd] = ra | static_cast<std::uint32_t>(ins.imm);
      break;
    case MOp::Xori:
      gpr_[ins.rd] = ra ^ static_cast<std::uint32_t>(ins.imm);
      break;
    case MOp::Addi:
      gpr_[ins.rd] = ra + static_cast<std::uint32_t>(ins.imm);
      break;
    case MOp::Mr:
      gpr_[ins.rd] = ra;
      break;
    case MOp::Add:
      gpr_[ins.rd] = ra + rb;
      break;
    case MOp::Subf:
      gpr_[ins.rd] = rb - ra;
      break;
    case MOp::Mullw:
      gpr_[ins.rd] = ra * rb;
      break;
    case MOp::Divw: {
      const auto a = static_cast<std::int32_t>(ra);
      const auto b = static_cast<std::int32_t>(rb);
      if (b == 0) throw MachineError("divw by zero at " + hex32(pc));
      if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
        gpr_[ins.rd] = ra;  // overflow wraps
      else
        gpr_[ins.rd] = static_cast<std::uint32_t>(a / b);
      break;
    }
    case MOp::And: gpr_[ins.rd] = ra & rb; break;
    case MOp::Or: gpr_[ins.rd] = ra | rb; break;
    case MOp::Xor: gpr_[ins.rd] = ra ^ rb; break;
    case MOp::Nor: gpr_[ins.rd] = ~(ra | rb); break;
    case MOp::Neg: gpr_[ins.rd] = 0u - ra; break;
    case MOp::Slw: {
      const std::uint32_t sh = rb & 0x3F;
      gpr_[ins.rd] = sh >= 32 ? 0 : ra << sh;
      break;
    }
    case MOp::Sraw: {
      const std::uint32_t sh = rb & 0x3F;
      const auto a = static_cast<std::int32_t>(ra);
      if (sh >= 32)
        gpr_[ins.rd] = a < 0 ? 0xFFFFFFFFu : 0;
      else
        gpr_[ins.rd] = static_cast<std::uint32_t>(a >> sh);
      break;
    }
    case MOp::Srw: {
      const std::uint32_t sh = rb & 0x3F;
      gpr_[ins.rd] = sh >= 32 ? 0 : ra >> sh;
      break;
    }
    case MOp::Rlwinm:
      gpr_[ins.rd] = rotl32(ra, ins.sh) & rlwinm_mask(ins.mb, ins.me);
      break;
    case MOp::Cmpw: {
      const auto a = static_cast<std::int32_t>(ra);
      const auto b = static_cast<std::int32_t>(rb);
      set_cr_field(ins.crf, a < b, a > b, a == b, false);
      break;
    }
    case MOp::Cmpwi: {
      const auto a = static_cast<std::int32_t>(ra);
      set_cr_field(ins.crf, a < ins.imm, a > ins.imm, a == ins.imm, false);
      break;
    }
    case MOp::Fcmpu: {
      const double a = fpr_[ins.ra];
      const double b = fpr_[ins.rb];
      if (std::isnan(a) || std::isnan(b))
        set_cr_field(ins.crf, false, false, false, true);
      else
        set_cr_field(ins.crf, a < b, a > b, a == b, false);
      break;
    }
    case MOp::Cror: {
      const std::uint32_t v = cr_bit(ins.crba) | cr_bit(ins.crbb);
      cr_ = (cr_ & ~(1u << (31 - ins.crbd))) | (v << (31 - ins.crbd));
      break;
    }
    case MOp::Mfcr:
      gpr_[ins.rd] = cr_;
      break;
    case MOp::Fadd: fpr_[ins.rd] = fpr_[ins.ra] + fpr_[ins.rb]; break;
    case MOp::Fsub: fpr_[ins.rd] = fpr_[ins.ra] - fpr_[ins.rb]; break;
    case MOp::Fmul: fpr_[ins.rd] = fpr_[ins.ra] * fpr_[ins.rb]; break;
    case MOp::Fdiv: fpr_[ins.rd] = fpr_[ins.ra] / fpr_[ins.rb]; break;
    case MOp::Fmadd: {
      // Non-fused semantics: fmadd here computes (a*b)+c in two IEEE
      // rounding steps, exactly like the separate fmul/fadd pair the O2
      // peephole replaced, so fusion is result-preserving by construction.
      // (Separate statements prevent host FMA contraction.)
      const double product = fpr_[ins.ra] * fpr_[ins.rb];
      fpr_[ins.rd] = product + fpr_[ins.rc];
      break;
    }
    case MOp::Fmsub: {
      const double product = fpr_[ins.ra] * fpr_[ins.rb];
      fpr_[ins.rd] = product - fpr_[ins.rc];
      break;
    }
    case MOp::Fneg: fpr_[ins.rd] = -fpr_[ins.ra]; break;
    case MOp::Fabs: fpr_[ins.rd] = std::fabs(fpr_[ins.ra]); break;
    case MOp::Fmr: fpr_[ins.rd] = fpr_[ins.ra]; break;
    case MOp::Fcti: {
      const minic::Value v =
          minic::eval_unop(minic::UnOp::F2I, minic::Value::of_f64(fpr_[ins.ra]));
      gpr_[ins.rd] = static_cast<std::uint32_t>(v.i);
      break;
    }
    case MOp::Icvf:
      fpr_[ins.rd] = static_cast<double>(static_cast<std::int32_t>(ra));
      break;
    case MOp::Lwz:
      gpr_[ins.rd] = read_u32(ra + static_cast<std::uint32_t>(ins.imm));
      break;
    case MOp::Stw:
      write_u32(ra + static_cast<std::uint32_t>(ins.imm), gpr_[ins.rd]);
      break;
    case MOp::Lwzx:
      gpr_[ins.rd] = read_u32(ra + rb);
      break;
    case MOp::Stwx:
      write_u32(ra + rb, gpr_[ins.rd]);
      break;
    case MOp::Lfd:
      fpr_[ins.rd] =
          double_of(read_u64(ra + static_cast<std::uint32_t>(ins.imm)));
      break;
    case MOp::Stfd:
      write_u64(ra + static_cast<std::uint32_t>(ins.imm),
                bits_of(fpr_[ins.rd]));
      break;
    case MOp::Lfdx:
      fpr_[ins.rd] = double_of(read_u64(ra + rb));
      break;
    case MOp::Stfdx:
      write_u64(ra + rb, bits_of(fpr_[ins.rd]));
      break;
    case MOp::B:
      next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
      branch_taken_ = true;
      break;
    case MOp::Bc: {
      const bool cond = cr_bit(ins.crbit) == (ins.expect ? 1u : 0u);
      if (cond) {
        next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
        branch_taken_ = true;
      }
      break;
    }
    case MOp::Blr:
      // The harness runs single functions; returning from the outermost
      // frame jumps to the stop address.
      next_pc_ = Image::kStopAddr;
      branch_taken_ = true;
      break;
    case MOp::Nop:
      break;
    case MOp::Lui:
      gpr_[ins.rd] = static_cast<std::uint32_t>(ins.imm) << 12;
      break;
    case MOp::Slli:
      gpr_[ins.rd] = ra << (static_cast<std::uint32_t>(ins.imm) & 31);
      break;
    case MOp::Sll:
      gpr_[ins.rd] = ra << (rb & 31);
      break;
    case MOp::Srl:
      gpr_[ins.rd] = ra >> (rb & 31);
      break;
    case MOp::Sra:
      gpr_[ins.rd] = static_cast<std::uint32_t>(
          static_cast<std::int32_t>(ra) >> (rb & 31));
      break;
    case MOp::Slt:
      gpr_[ins.rd] = static_cast<std::int32_t>(ra) <
                             static_cast<std::int32_t>(rb)
                         ? 1u
                         : 0u;
      break;
    case MOp::Sltu:
      gpr_[ins.rd] = ra < rb ? 1u : 0u;
      break;
    case MOp::Sltiu:
      gpr_[ins.rd] = ra < static_cast<std::uint32_t>(ins.imm) ? 1u : 0u;
      break;
    case MOp::Rem: {
      const auto a = static_cast<std::int32_t>(ra);
      const auto b = static_cast<std::int32_t>(rb);
      if (b == 0) throw MachineError("rem by zero at " + hex32(pc));
      if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
        gpr_[ins.rd] = 0;  // overflow case: remainder 0
      else
        gpr_[ins.rd] = static_cast<std::uint32_t>(a % b);
      break;
    }
    case MOp::Feq:
      gpr_[ins.rd] = fpr_[ins.ra] == fpr_[ins.rb] ? 1u : 0u;
      break;
    case MOp::Flt:
      gpr_[ins.rd] = fpr_[ins.ra] < fpr_[ins.rb] ? 1u : 0u;
      break;
    case MOp::Fle:
      gpr_[ins.rd] = fpr_[ins.ra] <= fpr_[ins.rb] ? 1u : 0u;
      break;
    case MOp::Beq:
      if (ra == rb) {
        next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
        branch_taken_ = true;
      }
      break;
    case MOp::Bne:
      if (ra != rb) {
        next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
        branch_taken_ = true;
      }
      break;
    case MOp::Blt:
      if (static_cast<std::int32_t>(ra) < static_cast<std::int32_t>(rb)) {
        next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
        branch_taken_ = true;
      }
      break;
    case MOp::Bge:
      if (static_cast<std::int32_t>(ra) >= static_cast<std::int32_t>(rb)) {
        next_pc_ = pc + static_cast<std::uint32_t>(ins.disp) * 4;
        branch_taken_ = true;
      }
      break;
  }
  // The hardwired zero register (when the target has one) absorbs writes.
  if (desc_->zero_gpr >= 0)
    gpr_[static_cast<std::size_t>(desc_->zero_gpr)] = 0;
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
