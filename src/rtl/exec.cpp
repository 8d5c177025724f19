#include "rtl/exec.hpp"

namespace vc::rtl {

using minic::Value;

Executor::Executor(const minic::Program& program) : program_(program) {
  // Dense ids in declaration order; ids never change for this executor.
  for (const auto& g : program_.globals) global_syms_.intern(g.name);
  reset_globals();
}

void Executor::reset_globals() {
  globals_.assign(global_syms_.size(), {});
  for (const auto& g : program_.globals) {
    std::vector<Value> cells(
        g.count, g.type == minic::Type::I32 ? Value::of_i32(0)
                                            : Value::of_f64(0.0));
    for (std::size_t i = 0; i < g.init.size(); ++i) {
      cells[i] = g.type == minic::Type::I32
                     ? Value::of_i32(static_cast<std::int32_t>(g.init[i]))
                     : Value::of_f64(g.init[i]);
    }
    globals_[static_cast<std::size_t>(global_syms_.find(g.name))] =
        std::move(cells);
  }
}

Value Executor::read_cell(SymbolId sym, std::size_t index) const {
  if (sym == kNoSymbol)
    throw minic::EvalError("unknown global in RTL exec");
  const auto& cells = globals_[static_cast<std::size_t>(sym)];
  if (index >= cells.size())
    throw minic::EvalError("global index out of range for '" +
                           global_syms_.name(sym) + "'");
  return cells[index];
}

void Executor::write_cell(SymbolId sym, std::size_t index, Value v) {
  if (sym == kNoSymbol)
    throw minic::EvalError("unknown global in RTL exec");
  auto& cells = globals_[static_cast<std::size_t>(sym)];
  if (index >= cells.size())
    throw minic::EvalError("global index out of range for '" +
                           global_syms_.name(sym) + "'");
  cells[index] = v;
}

Value Executor::read_global(const std::string& name, std::size_t index) const {
  const SymbolId sym = global_syms_.find(name);
  if (sym == kNoSymbol)
    throw minic::EvalError("unknown global '" + name + "'");
  return read_cell(sym, index);
}

void Executor::write_global(const std::string& name, std::size_t index,
                            Value v) {
  const SymbolId sym = global_syms_.find(name);
  if (sym == kNoSymbol)
    throw minic::EvalError("unknown global '" + name + "'");
  write_cell(sym, index, v);
}

Value Executor::call(const Function& fn, const std::vector<Value>& args) {
  if (args.size() != fn.params.size())
    throw minic::EvalError("argument count mismatch in RTL exec");

  annotations_.clear();
  steps_ = 0;

  std::vector<Value> regs(fn.vregs.size());
  for (std::size_t i = 0; i < fn.vregs.size(); ++i)
    regs[i] = fn.vregs[i] == RegClass::I32 ? Value::of_i32(0)
                                           : Value::of_f64(0.0);
  std::vector<Value> slots(fn.slots.size());
  for (std::size_t i = 0; i < fn.slots.size(); ++i)
    slots[i] = fn.slots[i] == RegClass::I32 ? Value::of_i32(0)
                                            : Value::of_f64(0.0);

  // Resolve each instruction's global symbol once per call: loops execute
  // the same static instruction many times, and a name lookup per executed
  // load/store dominated this interpreter's profile. Unknown names stay
  // kNoSymbol and only fault if actually executed (matching the old
  // execute-time map lookup). The tables are per-thread scratch: RTL has no
  // call opcode, so one call() is live per thread at a time.
  thread_local std::vector<std::uint32_t> block_base;  // first flat index
  thread_local std::vector<std::uint32_t> flat_syms;   // SymbolId + 1 each
  block_base.clear();
  flat_syms.clear();
  for (const BasicBlock& bb : fn.blocks) {
    block_base.push_back(static_cast<std::uint32_t>(flat_syms.size()));
    for (const Instr& ins : bb.instrs) {
      std::uint32_t id = 0;  // 0 = no symbol / unknown
      if (ins.op == Opcode::LoadGlobal || ins.op == Opcode::StoreGlobal ||
          ins.op == Opcode::LoadGlobalIdx ||
          ins.op == Opcode::StoreGlobalIdx) {
        const SymbolId sym = global_syms_.find(ins.sym);
        if (sym != kNoSymbol) id = static_cast<std::uint32_t>(sym) + 1;
      }
      flat_syms.push_back(id);
    }
  }
  const auto sym_at = [&](BlockId bb, std::size_t ip) {
    const std::uint32_t id = flat_syms[block_base[bb] + ip];
    return id == 0 ? kNoSymbol : static_cast<SymbolId>(id - 1);
  };

  BlockId bb = 0;
  std::size_t ip = 0;

  // SSA-form functions carry phi runs at block heads. All phis of a block
  // are one parallel copy: every incoming value is read before any phi dst
  // is written (loop-carried swap patterns are wrong otherwise). The phi
  // run is consumed here at edge-transfer time, so `ip` always resumes at
  // the first non-phi instruction.
  std::vector<Value> phi_tmp;
  const auto enter_block = [&](BlockId from, BlockId to) {
    bb = to;
    ip = 0;
    const auto& instrs = fn.blocks[to].instrs;
    std::size_t n_phi = 0;
    while (n_phi < instrs.size() && instrs[n_phi].op == Opcode::Phi) ++n_phi;
    if (n_phi == 0) return;
    phi_tmp.clear();
    for (std::size_t k = 0; k < n_phi; ++k) {
      const Instr& phi = instrs[k];
      const PhiArg* hit = nullptr;
      for (const PhiArg& a : phi.phi_args)
        if (a.pred == from) { hit = &a; break; }
      if (hit == nullptr)
        throw minic::EvalError("phi has no incoming arg for edge bb" +
                               std::to_string(from) + " -> bb" +
                               std::to_string(to));
      phi_tmp.push_back(regs[hit->src]);
    }
    for (std::size_t k = 0; k < n_phi; ++k) regs[instrs[k].dst] = phi_tmp[k];
    ip = n_phi;
    steps_ += n_phi;
  };

  for (;;) {
    if (++steps_ > fuel_) throw minic::EvalError("RTL fuel exhausted");
    const Instr& ins = fn.blocks[bb].instrs[ip];
    ++ip;
    switch (ins.op) {
      case Opcode::LdI:
        regs[ins.dst] = Value::of_i32(ins.int_imm);
        break;
      case Opcode::LdF:
        regs[ins.dst] = Value::of_f64(ins.f64_imm);
        break;
      case Opcode::Mov:
        regs[ins.dst] = regs[ins.src1];
        break;
      case Opcode::Un:
        regs[ins.dst] = minic::eval_unop(ins.un_op, regs[ins.src1]);
        break;
      case Opcode::Bin: {
        const Value& a = regs[ins.src1];
        const Value& b = regs[ins.src2];
        if (minic::operand_type(ins.bin_op) == minic::Type::I32)
          regs[ins.dst] = Value::of_i32(minic::eval_ibinop(ins.bin_op, a.i, b.i));
        else if (minic::result_type(ins.bin_op) == minic::Type::F64)
          regs[ins.dst] = Value::of_f64(minic::eval_fbinop(ins.bin_op, a.f, b.f));
        else
          regs[ins.dst] = Value::of_i32(minic::eval_fcmp(ins.bin_op, a.f, b.f));
        break;
      }
      case Opcode::LoadGlobal:
        regs[ins.dst] =
            read_cell(sym_at(bb, ip - 1), static_cast<std::size_t>(ins.elem));
        break;
      case Opcode::StoreGlobal:
        write_cell(sym_at(bb, ip - 1), static_cast<std::size_t>(ins.elem),
                   regs[ins.src1]);
        break;
      case Opcode::LoadGlobalIdx: {
        const std::int32_t idx = regs[ins.src1].i;
        if (idx < 0) throw minic::EvalError("negative index in RTL exec");
        regs[ins.dst] =
            read_cell(sym_at(bb, ip - 1), static_cast<std::size_t>(idx));
        break;
      }
      case Opcode::StoreGlobalIdx: {
        const std::int32_t idx = regs[ins.src2].i;
        if (idx < 0) throw minic::EvalError("negative index in RTL exec");
        write_cell(sym_at(bb, ip - 1), static_cast<std::size_t>(idx),
                   regs[ins.src1]);
        break;
      }
      case Opcode::LoadStack:
        regs[ins.dst] = slots[ins.slot];
        break;
      case Opcode::StoreStack:
        slots[ins.slot] = regs[ins.src1];
        break;
      case Opcode::GetParam:
        regs[ins.dst] = args[static_cast<std::size_t>(ins.param_index)];
        break;
      case Opcode::Jump:
        enter_block(bb, ins.target);
        break;
      case Opcode::Branch:
        enter_block(bb, regs[ins.src1].i != 0 ? ins.target : ins.target2);
        break;
      case Opcode::BranchCmp: {
        const Value& a = regs[ins.src1];
        const Value& b = regs[ins.src2];
        std::int32_t taken;
        if (minic::operand_type(ins.bin_op) == minic::Type::I32)
          taken = minic::eval_ibinop(ins.bin_op, a.i, b.i);
        else
          taken = minic::eval_fcmp(ins.bin_op, a.f, b.f);
        enter_block(bb, taken != 0 ? ins.target : ins.target2);
        break;
      }
      case Opcode::Ret:
        if (ins.src1 != kNoVReg) return regs[ins.src1];
        return Value::of_i32(0);
      case Opcode::Annot: {
        minic::AnnotEvent ev;
        ev.format = ins.annot_format;
        for (const AnnotOperand& a : ins.annot_args)
          ev.values.push_back(a.is_slot ? slots[a.slot] : regs[a.vreg]);
        annotations_.push_back(std::move(ev));
        break;
      }
      case Opcode::Phi:
        // Phi runs are consumed by enter_block; reaching one here means it
        // sits in the entry block, which has no predecessor edge.
        throw minic::EvalError("phi instruction in entry block");
    }
  }
}

}  // namespace vc::rtl
