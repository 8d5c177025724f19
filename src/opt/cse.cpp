#include <cstring>
#include <vector>

#include "opt/opt.hpp"
#include "rtl/analysis.hpp"

namespace vc::opt {
namespace {

using rtl::BlockId;
using rtl::Function;
using rtl::Instr;
using rtl::Opcode;
using rtl::VReg;

using ValueNumber = std::uint32_t;
constexpr ValueNumber kNoVn = 0xFFFFFFFF;

/// Hashable key describing a pure computation over value numbers.
struct ExprKey {
  Opcode op{};
  int sub_op = 0;  // un_op or bin_op ordinal
  std::uint64_t imm = 0;
  ValueNumber a = 0;
  ValueNumber b = 0;

  bool operator==(const ExprKey& o) const {
    return op == o.op && sub_op == o.sub_op && imm == o.imm && a == o.a &&
           b == o.b;
  }
};

std::uint64_t hash_key(const ExprKey& k) {
  // FNV-1a over the key fields, finished with a SplitMix64 avalanche so the
  // open-addressing probe sequence spreads even for near-identical keys.
  std::uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  mix(static_cast<std::uint64_t>(k.op));
  mix(static_cast<std::uint64_t>(static_cast<unsigned>(k.sub_op)));
  mix(k.imm);
  mix(k.a);
  mix(k.b);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

bool is_commutative(minic::BinOp op) {
  switch (op) {
    case minic::BinOp::IAdd:
    case minic::BinOp::IMul:
    case minic::BinOp::IAnd:
    case minic::BinOp::IOr:
    case minic::BinOp::IXor:
    case minic::BinOp::ICmpEq:
    case minic::BinOp::ICmpNe:
    case minic::BinOp::FAdd:
    case minic::BinOp::FMul:
    case minic::BinOp::FCmpEq:
    case minic::BinOp::FCmpNe:
      return true;
    default:
      return false;
  }
}

/// Dominator-scoped value numbering with copy propagation.
///
/// The function's dominator tree is walked in preorder; every table entry
/// made while visiting a block is popped from an undo log when its subtree
/// is done, so a block sees exactly the equivalences established on its
/// dominator chain (a scoped hash table, as in CompCert's CSE).
///
/// RTL is not SSA, so an equivalence inherited from a dominator can be stale:
/// a vreg may be redefined on a path between the dominator and the current
/// block (e.g. around a loop). An inherited binding for v is therefore
/// trusted only when it provably still holds:
///   - v has no definition anywhere (it always holds its initial value), or
///   - v has exactly one definition site and the binding was made there
///     (`from_def`); any path to the current block runs through the same
///     single def, so the binding describes the value the block observes.
/// Bindings made in the current block are always valid (the walk within a
/// block is sequential). Everything else gets a fresh number on use.
class ScopedVN {
 public:
  explicit ScopedVN(Function& fn) : fn_(fn) {
    def_count_.assign(fn.vregs.size(), 0);
    std::size_t pure_instrs = 0;
    for (const auto& bb : fn.blocks)
      for (const Instr& ins : bb.instrs) {
        if (auto d = ins.def()) ++def_count_[*d];
        if (ins.is_pure()) ++pure_instrs;
      }
    bindings_.assign(fn.vregs.size(), Binding{});
    // The expression table never rehashes: capacity covers every possible
    // insertion (at most one per pure instruction, twice for overwrites),
    // so undo-log slot indices stay stable for the whole walk.
    std::size_t cap = 16;
    while (cap < 4 * (pure_instrs + 1)) cap <<= 1;
    slots_.assign(cap, Slot{});
  }

  bool run() {
    thread_local std::vector<BlockId> idom;
    rtl::immediate_dominators(fn_, &idom);
    const auto children = rtl::dominator_children(idom);
    bool changed = false;
    // Iterative preorder DFS; frame second = undo-log marks at block entry.
    struct Frame {
      BlockId block;
      std::size_t next_child = 0;
      Marks marks;
    };
    std::vector<Frame> stack;
    stack.push_back({0, 0, marks()});
    changed |= visit_block(0);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_child < children[f.block].size()) {
        const BlockId c = children[f.block][f.next_child++];
        stack.push_back({c, 0, marks()});
        changed |= visit_block(c);
      } else {
        rollback(f.marks);
        stack.pop_back();
      }
    }
    return changed;
  }

 private:
  struct Binding {
    ValueNumber vn = kNoVn;
    BlockId block = 0;
    bool live = false;
    bool from_def = false;
  };
  struct Slot {
    ExprKey key{};
    VReg rep = rtl::kNoVReg;
    ValueNumber rep_vn = kNoVn;
    bool used = false;
  };
  struct Marks {
    std::size_t bind = 0, canon = 0, expr = 0;
  };

  Marks marks() const {
    return {bind_log_.size(), canon_log_.size(), expr_log_.size()};
  }

  void rollback(const Marks& m) {
    while (bind_log_.size() > m.bind) {
      bindings_[bind_log_.back().first] = bind_log_.back().second;
      bind_log_.pop_back();
    }
    while (canon_log_.size() > m.canon) {
      canon_[canon_log_.back().first] = canon_log_.back().second;
      canon_log_.pop_back();
    }
    while (expr_log_.size() > m.expr) {
      slots_[expr_log_.back().first] = expr_log_.back().second;
      expr_log_.pop_back();
    }
  }

  bool visit_block(BlockId b) {
    cur_block_ = b;
    bool changed = false;
    for (Instr& ins : fn_.blocks[b].instrs) {
      // Copy-propagate every register use to the canonical holder of its
      // value number (if that holder is still current).
      changed |= rewrite_uses(ins);

      if (!ins.is_pure()) {
        if (auto d = ins.def()) define_fresh(*d);
        continue;
      }

      const ExprKey key = make_key(ins);
      const std::size_t slot = find_slot(key);
      if (slots_[slot].used) {
        const VReg rep = slots_[slot].rep;
        const ValueNumber rep_vn = slots_[slot].rep_vn;
        if (rep != ins.dst && vn(rep) == rep_vn &&
            fn_.vregs[rep] == fn_.vregs[ins.dst]) {
          // Same value already available in `rep`: replace with a move.
          const VReg dst = ins.dst;
          Instr mv;
          mv.op = Opcode::Mov;
          mv.dst = dst;
          mv.src1 = rep;
          ins = mv;
          set_vn(dst, rep_vn);
          changed = true;
          continue;
        }
      }

      if (ins.op == Opcode::Mov) {
        set_vn(ins.dst, vn(ins.src1));
      } else {
        define_fresh(ins.dst);
        put_expr(slot, key, ins.dst, bindings_[ins.dst].vn);
      }
    }
    return changed;
  }

  /// True if v's current binding may be used at this point of the walk.
  bool binding_valid(VReg v) const {
    const Binding& b = bindings_[v];
    if (!b.live) return false;
    if (b.block == cur_block_) return true;
    if (def_count_[v] == 0) return true;
    return def_count_[v] == 1 && b.from_def;
  }

  ValueNumber vn(VReg v) {
    if (binding_valid(v)) return bindings_[v].vn;
    // First (trustworthy) reference to this value here: fresh number, this
    // vreg is its canonical holder. Not a def-site binding.
    const ValueNumber n = next_vn_++;
    set_binding(v, {n, cur_block_, true, false});
    set_canon(n, v);
    return n;
  }

  void set_vn(VReg v, ValueNumber n) {
    set_binding(v, {n, cur_block_, true, true});
    if (canon_of(n) == rtl::kNoVReg) set_canon(n, v);
  }

  void define_fresh(VReg v) {
    const ValueNumber n = next_vn_++;
    set_binding(v, {n, cur_block_, true, true});
    set_canon(n, v);
  }

  void set_binding(VReg v, Binding b) {
    bind_log_.emplace_back(v, bindings_[v]);
    bindings_[v] = b;
  }

  VReg canon_of(ValueNumber n) const {
    return n < canon_.size() ? canon_[n] : rtl::kNoVReg;
  }

  void set_canon(ValueNumber n, VReg v) {
    if (n >= canon_.size()) canon_.resize(n + 1, rtl::kNoVReg);
    canon_log_.emplace_back(n, canon_[n]);
    canon_[n] = v;
  }

  /// Returns the canonical vreg currently holding the same value as `u`,
  /// or `u` itself.
  VReg canonical(VReg u) {
    const ValueNumber n = vn(u);
    const VReg c = canon_of(n);
    if (c == rtl::kNoVReg || c == u) return u;
    if (!binding_valid(c) || bindings_[c].vn != n) return u;  // holder stale
    if (fn_.vregs[c] != fn_.vregs[u]) return u;
    return c;
  }

  bool rewrite_uses(Instr& ins) {
    bool changed = false;
    auto rw = [&](VReg& r) {
      if (r == rtl::kNoVReg) return;
      const VReg c = canonical(r);
      if (c != r) {
        r = c;
        changed = true;
      }
    };
    rtl::for_each_use(ins, rw);
    return changed;
  }

  ExprKey make_key(const Instr& ins) {
    ExprKey key;
    key.op = ins.op;
    switch (ins.op) {
      case Opcode::LdI:
        key.imm = static_cast<std::uint32_t>(ins.int_imm);
        break;
      case Opcode::LdF:
        std::memcpy(&key.imm, &ins.f64_imm, sizeof key.imm);
        break;
      case Opcode::Mov:
        key.a = vn(ins.src1);
        break;
      case Opcode::Un:
        key.sub_op = static_cast<int>(ins.un_op);
        key.a = vn(ins.src1);
        break;
      case Opcode::Bin: {
        key.sub_op = static_cast<int>(ins.bin_op);
        key.a = vn(ins.src1);
        key.b = vn(ins.src2);
        if (is_commutative(ins.bin_op) && key.b < key.a)
          std::swap(key.a, key.b);
        break;
      }
      case Opcode::GetParam:
        key.imm = static_cast<std::uint32_t>(ins.param_index);
        break;
      default:
        throw InternalError("make_key on impure instruction");
    }
    return key;
  }

  /// Linear-probe lookup: the slot holding `key`, or the empty slot where it
  /// would be inserted. Capacity is fixed and oversized, so this terminates.
  std::size_t find_slot(const ExprKey& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_key(key) & mask;
    while (slots_[i].used && !(slots_[i].key == key)) i = (i + 1) & mask;
    return i;
  }

  void put_expr(std::size_t slot, const ExprKey& key, VReg rep,
                ValueNumber rep_vn) {
    expr_log_.emplace_back(slot, slots_[slot]);
    slots_[slot] = {key, rep, rep_vn, true};
  }

  Function& fn_;
  BlockId cur_block_ = 0;
  std::vector<int> def_count_;
  std::vector<Binding> bindings_;      // indexed by vreg
  std::vector<VReg> canon_;            // indexed by value number
  std::vector<Slot> slots_;            // open-addressing expression table
  std::vector<std::pair<VReg, Binding>> bind_log_;
  std::vector<std::pair<ValueNumber, VReg>> canon_log_;
  std::vector<std::pair<std::size_t, Slot>> expr_log_;
  ValueNumber next_vn_ = 0;
};

}  // namespace

bool common_subexpression_elimination(rtl::Function& fn) {
  // Unreachable blocks are left untouched: the dominator tree only spans
  // blocks reachable from entry, and the validator walks the same tree.
  return ScopedVN(fn).run();
}

}  // namespace vc::opt
