// Golden verdict corpus for the translation validators.
//
// Every seeded mutant of validate_test, machine_validate_test and ssa_test,
// plus generated ones — bench/mutate.hpp's RTL defect model applied to the
// real per-pass snapshots of generated campaign nodes, and operand swaps and
// immediate +-1 on the selfmove/peephole output of both targets — runs
// through every checker that accepts its shape. Each (checker, mutant) pair
// renders as one line "checker mutant ok" or "checker mutant fail: message",
// and the whole text is pinned in tests/data/validator_verdicts.txt. A change
// to a checker's representation must reproduce that file byte for byte: no
// verdict and no failure message may move.
//
// On a mismatch the fresh text is left next to the test binary as
// validator_verdicts.got.txt for diffing (and, after review, for copying
// over the fixture).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "mach/codegen.hpp"
#include "mach/target.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "mutate.hpp"
#include "opt/opt.hpp"
#include "pass/pass.hpp"
#include "rtl/analysis.hpp"
#include "rtl/lower.hpp"
#include "ssa/ssa.hpp"
#include "support/rng.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

rtl::Function lower(const minic::Program& p, std::size_t fn = 0) {
  rtl::Function f =
      rtl::lower_function(p, p.functions[fn], rtl::LowerMode::Value);
  rtl::remove_unreachable_blocks(f);
  return f;
}

/// Accumulates verdict lines. Each shape of input runs through every checker
/// that takes that shape.
class Corpus {
 public:
  void record(const std::string& checker, const std::string& mutant,
              const validate::CheckResult& r) {
    text_ += checker + " " + mutant;
    if (r.ok) {
      text_ += " ok\n";
      return;
    }
    text_ += " fail: ";
    for (char c : r.message) {
      if (c == '\n')
        text_ += "\\n";
      else
        text_ += c;
    }
    text_ += "\n";
  }

  /// Two RTL versions of one function of `program`.
  void rtl_pair(const std::string& mutant, const minic::Program& program,
                const rtl::Function& before, const rtl::Function& after) {
    record("structure", mutant,
           validate::check_structure_preserving(before, after));
    record("deadstore", mutant,
           validate::check_dead_store_elimination(before, after));
    record("differential", mutant,
           validate::differential_check(program, before, after, 6, 1));
    record("ssa-equiv", mutant,
           validate::check_ssa_equivalence(before, after));
    record("ssa-wf", mutant, validate::check_ssa_wellformed(after));
  }

  /// Two machine versions of one function.
  void machine_pair(const std::string& mutant, const mach::AsmFunction& before,
                    const mach::TargetDesc& desc,
                    const mach::AsmFunction& after) {
    record("machine", mutant,
           validate::check_machine_equivalence(before, desc, after));
    record("schedule", mutant, validate::check_schedule(before, after));
  }

  [[nodiscard]] const std::string& text() const { return text_; }

 private:
  std::string text_;
};

// ---------------------------------------------------------------------------
// The hand-seeded mutants of the checker tests
// ---------------------------------------------------------------------------

/// validate_test's kernel.
const char* kSample = R"(
  global f64 state = 1.5;
  global f64 hist[4] = {0.5, 1.0, 1.5, 2.0};
  func f64 law(f64 x, f64 y, i32 k) {
    local f64 t1; local f64 t2; local f64 acc;
    local i32 i;
    t1 = x * y + state;
    t2 = x * y - state;
    acc = 0.0;
    for (i = 0; i < 4; i = i + 1) {
      acc = acc + hist[i] * t1;
    }
    if (k > 0) { acc = acc + t2; } else { acc = acc - t2; }
    state = acc * 0.25;
    return acc;
  }
)";

/// Rewrites the first instruction matching `pick` with `edit`; returns
/// whether one matched.
template <typename Pick, typename Edit>
bool edit_first(rtl::Function& fn, Pick pick, Edit edit) {
  for (auto& bb : fn.blocks)
    for (auto& ins : bb.instrs)
      if (pick(ins)) {
        edit(fn, ins);
        return true;
      }
  return false;
}

void drop_store(rtl::Function& fn, rtl::Instr& ins) {
  rtl::Instr mv;
  mv.op = rtl::Opcode::Mov;
  mv.dst = fn.new_vreg(fn.vregs[ins.src1]);
  mv.src1 = ins.src1;
  ins = mv;
}

void seeded_rtl_mutants(Corpus& c) {
  const minic::Program program = parse(kSample);
  const rtl::Function before = lower(program);
  c.rtl_pair("validate/identity", program, before, before);

  rtl::Function cse = before;
  opt::common_subexpression_elimination(cse);
  c.rtl_pair("validate/cse", program, before, cse);
  rtl::Function fwd = before;
  opt::memory_forwarding(fwd);
  c.rtl_pair("validate/forward", program, before, fwd);

  const auto is_bin = [](minic::BinOp op) {
    return [op](const rtl::Instr& i) {
      return i.op == rtl::Opcode::Bin && i.bin_op == op;
    };
  };
  rtl::Function m = before;
  edit_first(m, is_bin(minic::BinOp::FSub),
             [](rtl::Function&, rtl::Instr& i) { std::swap(i.src1, i.src2); });
  c.rtl_pair("validate/fsub-swap", program, before, m);
  m = before;
  edit_first(m, [](const rtl::Instr& i) { return i.op == rtl::Opcode::LdF; },
             [](rtl::Function&, rtl::Instr& i) { i.f64_imm += 1.0; });
  c.rtl_pair("validate/ldf-plus-one", program, before, m);
  m = before;
  edit_first(
      m,
      [](const rtl::Instr& i) {
        return i.op == rtl::Opcode::StoreGlobal && i.sym == "state";
      },
      [](rtl::Function&, rtl::Instr& i) {
        i.sym = "hist";
        i.elem = 0;
      });
  c.rtl_pair("validate/store-retarget", program, before, m);
  m = before;
  edit_first(m, is_bin(minic::BinOp::FAdd),
             [](rtl::Function&, rtl::Instr& i) {
               i.bin_op = minic::BinOp::FSub;
             });
  c.rtl_pair("validate/fadd-to-fsub", program, before, m);
  m = before;
  edit_first(m,
             [](const rtl::Instr& i) {
               return i.op == rtl::Opcode::StoreGlobal;
             },
             drop_store);
  c.rtl_pair("validate/drop-store", program, before, m);
  m = before;
  edit_first(m,
             [](const rtl::Instr& i) {
               return i.op == rtl::Opcode::LdI && i.int_imm == 4;
             },
             [](rtl::Function&, rtl::Instr& i) { i.int_imm = 3; });
  c.rtl_pair("validate/loop-bound", program, before, m);

  // The forwarding subject: x2 = x+x ; state = x ; r = load state ; ret r.
  rtl::Function fs;
  fs.name = "subject";
  fs.params.push_back({"x", rtl::RegClass::F64});
  fs.has_return = true;
  fs.ret_class = rtl::RegClass::F64;
  const rtl::VReg vx = fs.new_vreg(rtl::RegClass::F64);
  const rtl::VReg v2 = fs.new_vreg(rtl::RegClass::F64);
  const rtl::VReg vr = fs.new_vreg(rtl::RegClass::F64);
  fs.blocks.resize(1);
  auto& ins = fs.blocks[0].instrs;
  rtl::Instr i;
  i.op = rtl::Opcode::GetParam;
  i.dst = vx;
  ins.push_back(i);
  i = {};
  i.op = rtl::Opcode::Bin;
  i.bin_op = minic::BinOp::FAdd;
  i.dst = v2;
  i.src1 = vx;
  i.src2 = vx;
  ins.push_back(i);
  i = {};
  i.op = rtl::Opcode::StoreGlobal;
  i.sym = "state";
  i.src1 = vx;
  ins.push_back(i);
  i = {};
  i.op = rtl::Opcode::LoadGlobal;
  i.sym = "state";
  i.dst = vr;
  ins.push_back(i);
  i = {};
  i.op = rtl::Opcode::Ret;
  i.src1 = vr;
  ins.push_back(i);
  const auto forwarded = [&](const rtl::Function& f, std::size_t at,
                             rtl::VReg src) {
    rtl::Function g = f;
    rtl::Instr& ld = g.blocks[0].instrs[at];
    ld = rtl::Instr{};
    ld.op = rtl::Opcode::Mov;
    ld.dst = vr;
    ld.src1 = src;
    return g;
  };
  c.rtl_pair("validate/forward-good", program, fs, forwarded(fs, 3, vx));
  c.rtl_pair("validate/forward-wrong-source", program, fs,
             forwarded(fs, 3, v2));
  rtl::Function no_store = fs;
  no_store.blocks[0].instrs.erase(no_store.blocks[0].instrs.begin() + 2);
  c.rtl_pair("validate/forward-no-store", program, no_store,
             forwarded(no_store, 2, vx));

  // The dead-store subject: a dead slot store and a live global store.
  rtl::Function ds;
  ds.name = "ds";
  ds.params.push_back({"x", rtl::RegClass::F64});
  const rtl::VReg dx = ds.new_vreg(rtl::RegClass::F64);
  const rtl::Slot s0 = ds.new_slot(rtl::RegClass::F64);
  ds.blocks.resize(1);
  auto& dins = ds.blocks[0].instrs;
  i = {};
  i.op = rtl::Opcode::GetParam;
  i.dst = dx;
  dins.push_back(i);
  i = {};
  i.op = rtl::Opcode::StoreStack;
  i.slot = s0;
  i.src1 = dx;
  dins.push_back(i);
  i = {};
  i.op = rtl::Opcode::StoreGlobal;
  i.sym = "state";
  i.src1 = dx;
  dins.push_back(i);
  i = {};
  i.op = rtl::Opcode::Ret;
  dins.push_back(i);
  for (std::size_t k = 0; k < 3; ++k) {
    rtl::Function removed = ds;
    removed.blocks[0].instrs.erase(removed.blocks[0].instrs.begin() +
                                   static_cast<std::ptrdiff_t>(k));
    c.rtl_pair("validate/deadstore-remove-" + std::to_string(k), program, ds,
               removed);
  }

  // The end-to-end checker against an image with one fadd turned fsub.
  driver::Compiled compiled =
      driver::compile_program(program, driver::Config::Verified);
  c.record("cross-check", "validate/image-genuine",
           validate::cross_check_machine(program, compiled, "law", 8, 5));
  for (auto& word : compiled.image.words) {
    mach::MInstr d = mach::decode(word);
    if (d.op != mach::MOp::Fadd) continue;
    d.op = mach::MOp::Fsub;
    word = mach::encode(d);
    break;
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    c.record("cross-check", "validate/image-fadd-to-fsub-s" +
                                std::to_string(seed),
             validate::cross_check_machine(program, compiled, "law", 8, seed));
}

/// ssa_test's kernels.
const char* kLoopy = R"(
  global f64 acc = 0.25;
  global f64 tbl[8] = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0};
  func f64 filt(f64 x, f64 y, i32 k) {
    local i32 i; local f64 s; local f64 t1; local f64 t2;
    t1 = x * y + acc;
    t2 = x * y - acc;
    s = 0.0;
    i = 0;
    while (i < 8) {
      __annot("loop <= 8");
      s = s + tbl[i] * (x * 2.0);
      acc = acc + s * 0.125;
      i = i + 1;
    }
    if (k > 0) { s = s + t1; } else { s = s - t2; }
    return s;
  }
)";

const char* kIntLoop = R"(
  global i32 sum = 0;
  func i32 tri(i32 n) {
    local i32 i; local i32 a; local i32 b;
    a = n * n + 1;
    b = n * n + 1;
    i = 0;
    while (i < 6) {
      sum = sum + i * a + b;
      i = i + 1;
    }
    return sum;
  }
)";

void seeded_ssa_mutants(Corpus& c) {
  const minic::Program loopy = parse(kLoopy);
  const minic::Program intloop = parse(kIntLoop);

  // Genuine bracket steps.
  for (const auto* program : {&loopy, &intloop}) {
    const std::string tag = program == &loopy ? "loopy" : "intloop";
    const rtl::Function original = lower(*program);
    rtl::Function ssa = original;
    ssa::build_ssa(ssa);
    c.rtl_pair("ssa/" + tag + "/build", *program, original, ssa);
    rtl::Function gvn = ssa;
    ssa::global_value_numbering(gvn);
    c.rtl_pair("ssa/" + tag + "/gvn", *program, ssa, gvn);
    rtl::Function licm = ssa;
    ssa::loop_invariant_code_motion(licm);
    c.rtl_pair("ssa/" + tag + "/licm", *program, ssa, licm);
    rtl::Function rotated = ssa;
    ssa::loop_rotation(rotated);
    c.rtl_pair("ssa/" + tag + "/rotate", *program, ssa, rotated);
    rtl::Function out = ssa;
    ssa::destroy_ssa(out);
    c.rtl_pair("ssa/" + tag + "/out", *program, ssa, out);
  }

  // GVN planting a wrong copy: the first Bin becomes dst = src1.
  {
    rtl::Function before = lower(intloop);
    ssa::build_ssa(before);
    rtl::Function bad = before;
    edit_first(bad,
               [](const rtl::Instr& i) { return i.op == rtl::Opcode::Bin; },
               [](rtl::Function&, rtl::Instr& i) {
                 rtl::Instr mov;
                 mov.op = rtl::Opcode::Mov;
                 mov.dst = i.dst;
                 mov.src1 = i.src1;
                 i = mov;
               });
    c.rtl_pair("ssa/gvn-wrong-copy", intloop, before, bad);
  }

  // A use the definition cannot dominate.
  {
    rtl::Function before = lower(loopy);
    ssa::build_ssa(before);
    rtl::Function bad = before;
    rtl::VReg late = rtl::kNoVReg;
    rtl::RegClass late_cls = rtl::RegClass::I32;
    for (rtl::BlockId b = 1; b < bad.blocks.size() && late == rtl::kNoVReg; ++b)
      for (const auto& i : bad.blocks[b].instrs)
        if (auto d = i.def()) {
          late = *d;
          late_cls = bad.vregs[*d];
          break;
        }
    bool planted = false;
    for (auto& i : bad.blocks[0].instrs) {
      if (planted) break;
      rtl::for_each_use(i, [&](rtl::VReg& u) {
        if (!planted && bad.vregs[u] == late_cls) {
          planted = true;
          u = late;
        }
      });
    }
    c.rtl_pair("ssa/non-dominating-use", loopy, before, bad);
  }

  // A phi losing one incoming edge.
  {
    rtl::Function before = lower(loopy);
    ssa::build_ssa(before);
    rtl::Function bad = before;
    edit_first(bad,
               [](const rtl::Instr& i) {
                 return i.op == rtl::Opcode::Phi && i.phi_args.size() >= 2;
               },
               [](rtl::Function&, rtl::Instr& i) { i.phi_args.pop_back(); });
    c.rtl_pair("ssa/phi-arity", loopy, before, bad);
  }

  // Unrolling: the certificate, a loose residual, forged anchors, and the
  // strict versus loop-bound-normalized differential check.
  {
    const rtl::Function original = lower(loopy);
    rtl::Function before = original;
    ssa::build_ssa(before);
    rtl::Function fn = before;
    ssa::UnrollCertificate cert;
    ssa::loop_unrolling(fn, &cert);
    c.record("unroll-cert", "ssa/unroll",
             validate::check_unroll_certificate(before, fn, cert));
    ssa::UnrollCertificate bad = cert;
    bad.loops[0].residual_bound += 1;
    c.record("unroll-cert", "ssa/unroll-loose-residual",
             validate::check_unroll_certificate(before, fn, bad));
    ssa::UnrollCertificate forged = cert;
    forged.loops[0].after_anchors.back() = {0, 0};
    c.record("unroll-cert", "ssa/unroll-forged-anchor",
             validate::check_unroll_certificate(before, fn, forged));
    c.rtl_pair("ssa/unroll", loopy, before, fn);
    c.record("differential-normalized", "ssa/unroll",
             validate::differential_check(loopy, original, fn, 6, 13, true));
  }
}

/// machine_validate_test's kernel.
const char* kLawSource = R"(
  global f64 state = 0.25;
  global f64 aux = 0.0;
  func f64 law(f64 x, f64 y, i32 m) {
    local f64 a; local f64 b; local f64 c;
    a = x * 0.5 + y;
    b = a * a - y * 0.25;
    c = x * 0.5 + b;
    if (m > 0) { a = a + b * 2.0; } else { a = a - c; }
    state = state * 0.9 + a * 0.1;
    aux = b + state;
    return a + b * state + c;
  }
)";

/// Every step snapshot of one compile the corpus draws from.
struct Steps {
  struct Rtl {
    std::string fn, pass;
    rtl::Function before, after;
  };
  struct Machine {
    std::string fn, pass;
    mach::AsmFunction before, after;
    const mach::TargetDesc* desc = nullptr;
  };
  std::vector<Rtl> rtl;
  std::vector<Machine> machine;
  rtl::Function ra_before, ra_after;
  regalloc::Allocation alloc;
  int k_int = 0, k_float = 0;
  mach::AsmFunction emitted;
};

Steps capture(const minic::Program& program, driver::Config config,
              const std::string& target) {
  Steps s;
  driver::CompileOptions copts;
  copts.target = target;
  copts.hook = [&s](const pass::StepTrace& t) {
    const std::string& fn = t.state->name();
    if (t.pass == "regalloc" && t.rtl_before != nullptr) {
      s.ra_before = *t.rtl_before;
      s.ra_after = t.state->rtl;
      s.alloc = t.state->alloc;
      s.k_int = t.state->k_int;
      s.k_float = t.state->k_float;
    } else if (t.level == pass::Level::Rtl && t.rtl_before != nullptr &&
               t.pass != "lower") {
      s.rtl.push_back({fn, t.pass, *t.rtl_before, t.state->rtl});
    }
    if (t.pass == "emit") s.emitted = t.state->machine;
    if ((t.pass == "selfmove" || t.pass == "peephole") &&
        t.machine_before != nullptr)
      s.machine.push_back(
          {fn, t.pass, *t.machine_before, t.state->machine, t.state->target});
    return 0;
  };
  driver::compile_program(program, config, copts);
  return s;
}

void seeded_machine_mutants(Corpus& c) {
  const minic::Program program = parse(kLawSource);
  const Steps s = capture(program, driver::Config::O2Full, "ppc");
  const mach::TargetDesc& ppc = mach::target_by_name("ppc");

  c.record("regalloc", "machine/genuine",
           validate::check_register_allocation(s.ra_before, s.ra_after,
                                               s.alloc, s.k_int, s.k_float));
  regalloc::Allocation bad_count = s.alloc;
  bad_count.spill_count += 1;
  c.record("regalloc", "machine/spill-count",
           validate::check_register_allocation(s.ra_before, s.ra_after,
                                               bad_count, s.k_int, s.k_float));
  rtl::Function dropped = s.ra_after;
  for (auto& bb : dropped.blocks)
    if (bb.instrs.size() >= 2) {
      bb.instrs.erase(bb.instrs.begin());
      break;
    }
  c.record("regalloc", "machine/dropped-instr",
           validate::check_register_allocation(s.ra_before, dropped, s.alloc,
                                               s.k_int, s.k_float));
  const auto& locs = s.alloc.locs;
  for (std::size_t v1 = 0; v1 < locs.size(); ++v1)
    for (std::size_t v2 = 0; v2 < locs.size(); ++v2) {
      if (v1 == v2 || !locs[v1].in_reg || !locs[v2].in_reg) continue;
      if (s.ra_after.vregs[v1] != s.ra_after.vregs[v2]) continue;
      if (locs[v1].color == locs[v2].color) continue;
      regalloc::Allocation bad = s.alloc;
      bad.locs[v1].color = locs[v2].color;
      c.record("regalloc",
               "machine/recolor-v" + std::to_string(v1) + "-as-v" +
                   std::to_string(v2),
               validate::check_register_allocation(s.ra_before, s.ra_after,
                                                   bad, s.k_int, s.k_float));
    }

  // The emitted code against itself, a shifted store, a deleted store, a
  // resized frame and a dependence-inverting swap.
  const mach::AsmFunction& m = s.emitted;
  c.machine_pair("machine/identity", m, ppc, m);
  std::size_t store_at = m.ops.size();
  for (std::size_t i = 0; i < m.ops.size() && store_at == m.ops.size(); ++i)
    if (m.ops[i].ins.op == mach::MOp::Stw || m.ops[i].ins.op == mach::MOp::Stfd)
      store_at = i;
  {
    mach::AsmFunction bad = m;
    if (bad.ops[store_at].reloc_sym.empty())
      bad.ops[store_at].ins.imm += 8;
    else
      bad.ops[store_at].reloc_addend += 8;
    c.machine_pair("machine/store-shift", m, ppc, bad);
  }
  {
    mach::AsmFunction bad = m;
    bad.ops.erase(bad.ops.begin() + static_cast<std::ptrdiff_t>(store_at));
    for (auto& [id, pos] : bad.labels)
      if (pos > store_at) --pos;
    for (auto& a : bad.annots)
      if (a.addr > store_at) --a.addr;
    c.machine_pair("machine/store-delete", m, ppc, bad);
  }
  {
    mach::AsmFunction bad = m;
    bad.frame_bytes += 8;
    c.machine_pair("machine/frame-resize", m, ppc, bad);
  }
  for (std::size_t i = 0; i + 1 < m.ops.size(); ++i) {
    if (mach::is_branch(m.ops[i].ins.op) ||
        mach::is_branch(m.ops[i + 1].ins.op))
      continue;
    if (m.ops[i].ins == m.ops[i + 1].ins) continue;
    mach::AsmFunction bad = m;
    std::swap(bad.ops[i], bad.ops[i + 1]);
    c.machine_pair("machine/swap-" + std::to_string(i), m, ppc, bad);
  }

  // Marker merge from a removed self-move, and a real identity change.
  mach::AsmFunction fn;
  fn.name = "merge";
  const auto mr = [](int rd, int ra) {
    mach::AsmOp op;
    op.ins.op = mach::MOp::Mr;
    op.ins.rd = static_cast<std::uint8_t>(rd);
    op.ins.ra = static_cast<std::uint8_t>(ra);
    return op;
  };
  fn.ops.push_back(mr(3, 4));
  fn.ops.push_back(mr(5, 5));
  fn.ops.push_back(mr(6, 7));
  mach::AsmOp ret;
  ret.ins.op = mach::MOp::Blr;
  fn.ops.push_back(ret);
  fn.annots.push_back({1, "zz", {}});
  fn.annots.push_back({2, "aa", {}});
  mach::AsmFunction merged = fn;
  mach::remove_self_moves(merged);
  c.machine_pair("machine/marker-merge", fn, ppc, merged);
  merged.annots[1].format = "qq";
  c.machine_pair("machine/marker-identity", fn, ppc, merged);
}

// ---------------------------------------------------------------------------
// Generated mutants
// ---------------------------------------------------------------------------

bool takes_immediate(mach::MOp op) {
  switch (op) {
    case mach::MOp::Li: case mach::MOp::Lis: case mach::MOp::Addi:
    case mach::MOp::Ori: case mach::MOp::Xori: case mach::MOp::Cmpwi:
    case mach::MOp::Lwz: case mach::MOp::Lfd: case mach::MOp::Stw:
    case mach::MOp::Stfd: case mach::MOp::Lui: case mach::MOp::Slli:
    case mach::MOp::Sltiu:
      return true;
    default:
      return false;
  }
}

/// Operand swaps and immediate +-1 on one selfmove/peephole output.
void machine_mutants(Corpus& c, const std::string& tag,
                     const Steps::Machine& step, Rng& rng) {
  c.machine_pair(tag + "/genuine", step.before, *step.desc, step.after);
  std::vector<std::size_t> swaps, imms;
  for (std::size_t i = 0; i < step.after.ops.size(); ++i) {
    const mach::MInstr& m = step.after.ops[i].ins;
    if (m.ra != m.rb) swaps.push_back(i);
    if (takes_immediate(m.op)) imms.push_back(i);
  }
  for (int k = 0; k < 3 && !swaps.empty(); ++k) {
    const std::size_t at = swaps[rng.next_below(swaps.size())];
    mach::AsmFunction bad = step.after;
    std::swap(bad.ops[at].ins.ra, bad.ops[at].ins.rb);
    c.machine_pair(tag + "/swap@" + std::to_string(at), step.before,
                   *step.desc, bad);
  }
  for (int k = 0; k < 3 && !imms.empty(); ++k) {
    const std::size_t at = imms[rng.next_below(imms.size())];
    const int delta = rng.next_bool() ? 1 : -1;
    mach::AsmFunction bad = step.after;
    bad.ops[at].ins.imm += delta;
    c.machine_pair(tag + "/imm" + (delta > 0 ? "+1" : "-1") + "@" +
                       std::to_string(at),
                   step.before, *step.desc, bad);
  }
}

void generated_mutants(Corpus& c) {
  Rng rng(20260418);
  const auto nodes = dataflow::generate_suite(9119, 6);
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    minic::Program program;
    program.name = nodes[n].name();
    dataflow::generate_node(nodes[n], &program);
    minic::type_check(program);
    const std::string node = "gen/n" + std::to_string(n);

    // RTL: the lowered step function, and the first snapshot of every RTL
    // pass of an optimizing compile, each genuine and under two mutations.
    const std::string step_fn = dataflow::step_function_name(nodes[n]);
    for (std::size_t f = 0; f < program.functions.size(); ++f) {
      if (program.functions[f].name != step_fn) continue;
      const rtl::Function lowered = lower(program, f);
      for (int k = 0; k < 4; ++k) {
        rtl::Function bad = lowered;
        if (bench::mutate(bad, rng))
          c.rtl_pair(node + "/lowered/m" + std::to_string(k), program,
                     lowered, bad);
      }
      rtl::Function ssa = lowered;
      ssa::build_ssa(ssa);
      rtl::Function gvn = ssa;
      ssa::global_value_numbering(gvn);
      c.rtl_pair(node + "/ssa-gvn", program, ssa, gvn);
      for (int k = 0; k < 2; ++k) {
        rtl::Function bad = gvn;
        if (bench::mutate(bad, rng))
          c.rtl_pair(node + "/ssa-gvn/m" + std::to_string(k), program, ssa,
                     bad);
      }
    }

    for (const std::string target : {"ppc", "rv32"}) {
      const Steps s = capture(program, driver::Config::O2Full, target);
      std::vector<std::string> seen;
      for (const Steps::Rtl& step : s.rtl) {
        if (step.fn != step_fn || target != "ppc") continue;
        if (std::find(seen.begin(), seen.end(), step.pass) != seen.end())
          continue;
        seen.push_back(step.pass);
        const std::string tag = node + "/" + step.pass;
        c.rtl_pair(tag + "/genuine", program, step.before, step.after);
        for (int k = 0; k < 2; ++k) {
          rtl::Function bad = step.after;
          if (bench::mutate(bad, rng))
            c.rtl_pair(tag + "/m" + std::to_string(k), program, step.before,
                       bad);
        }
      }
      for (std::size_t k = 0; k < s.machine.size(); ++k)
        machine_mutants(c,
                        node + "/" + target + "/" + s.machine[k].fn + "/" +
                            s.machine[k].pass + std::to_string(k),
                        s.machine[k], rng);
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ValidatorCorpus, VerdictsMatchTheGoldenFile) {
  Corpus c;
  seeded_rtl_mutants(c);
  seeded_ssa_mutants(c);
  seeded_machine_mutants(c);
  generated_mutants(c);

  const std::string want = read_file(std::string(VCFLIGHT_TEST_DATA_DIR) +
                                     "/validator_verdicts.txt");
  const std::string& got = c.text();
  if (got != want)
    std::ofstream("validator_verdicts.got.txt", std::ios::binary) << got;
  ASSERT_FALSE(want.empty());
  std::istringstream want_lines(want);
  std::istringstream got_lines(got);
  std::string w, g;
  for (int line = 1;; ++line) {
    const bool more_w = static_cast<bool>(std::getline(want_lines, w));
    const bool more_g = static_cast<bool>(std::getline(got_lines, g));
    if (!more_w && !more_g) break;
    ASSERT_EQ(more_w, more_g) << "line count differs at line " << line;
    ASSERT_EQ(w, g) << "first differing verdict at line " << line;
  }
}

}  // namespace
}  // namespace vc
