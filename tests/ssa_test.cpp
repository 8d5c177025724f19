// SSA mid-end tests: construction/destruction, the loop optimizations, the
// three SSA validators (including the mutation tests that prove each checker
// fires), the pipeline bracket rules, and full validated compiles with the
// SSA mid-end enabled on both targets.
#include <gtest/gtest.h>

#include <algorithm>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "rtl/analysis.hpp"
#include "rtl/lower.hpp"
#include "rtl/rtl.hpp"
#include "ssa/ssa.hpp"
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

/// A loop-heavy control law: a counted annotated loop with an invariant
/// product (LICM bait), redundant subexpressions (GVN bait), and global
/// state so the differential oracle sees memory effects.
const std::string kLoopy = R"(
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

/// An unannotated loop plus integer redundancy: rotation and unrolling must
/// leave it alone, GVN must still fire.
const std::string kIntLoop = R"(
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

int count_ops(const rtl::Function& fn, rtl::Opcode op) {
  int n = 0;
  for (const auto& b : fn.blocks)
    for (const auto& ins : b.instrs)
      if (ins.op == op) ++n;
  return n;
}

int count_annots(const rtl::Function& fn, const std::string& format) {
  int n = 0;
  for (const auto& b : fn.blocks)
    for (const auto& ins : b.instrs)
      if (ins.op == rtl::Opcode::Annot && ins.annot_format == format) ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Construction / destruction
// ---------------------------------------------------------------------------

TEST(SsaBuild, ProducesWellFormedEquivalentSsa) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;

  EXPECT_TRUE(ssa::build_ssa(fn));
  EXPECT_TRUE(ssa::has_phis(fn));
  EXPECT_NO_THROW(fn.validate());

  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
  const auto diff = validate::differential_check(program, original, fn, 8, 3);
  EXPECT_TRUE(diff.ok) << diff.message;
}

TEST(SsaBuild, DeterministicDump) {
  const auto program = parse(kLoopy);
  rtl::Function a = lower(program);
  rtl::Function b = lower(program);
  ssa::build_ssa(a);
  ssa::build_ssa(b);
  EXPECT_EQ(rtl::print_function(a), rtl::print_function(b));
}

TEST(SsaOut, EliminatesAllPhis) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;

  ssa::build_ssa(fn);
  EXPECT_TRUE(ssa::destroy_ssa(fn));
  EXPECT_FALSE(ssa::has_phis(fn));
  EXPECT_NO_THROW(fn.validate());

  const auto diff = validate::differential_check(program, original, fn, 8, 5);
  EXPECT_TRUE(diff.ok) << diff.message;
}

TEST(SsaDump, GoldenPhiText) {
  // A hand-built diamond: the dump of a phi spells every incoming edge,
  // sorted by predecessor, and is stable.
  rtl::Function fn;
  fn.name = "pick";
  fn.params.push_back({"c", rtl::RegClass::I32});
  const rtl::VReg c = fn.new_vreg(rtl::RegClass::I32);
  const rtl::VReg a = fn.new_vreg(rtl::RegClass::I32);
  const rtl::VReg b = fn.new_vreg(rtl::RegClass::I32);
  const rtl::VReg m = fn.new_vreg(rtl::RegClass::I32);
  fn.has_return = true;
  fn.ret_class = rtl::RegClass::I32;
  fn.blocks.resize(4);
  auto ins = [](rtl::Opcode op) { rtl::Instr i; i.op = op; return i; };

  rtl::Instr par = ins(rtl::Opcode::GetParam);
  par.dst = c;
  par.param_index = 0;
  rtl::Instr br = ins(rtl::Opcode::Branch);
  br.src1 = c;
  br.target = 1;
  br.target2 = 2;
  fn.blocks[0].instrs = {par, br};

  rtl::Instr ld1 = ins(rtl::Opcode::LdI);
  ld1.dst = a;
  ld1.int_imm = 7;
  rtl::Instr j1 = ins(rtl::Opcode::Jump);
  j1.target = 3;
  fn.blocks[1].instrs = {ld1, j1};

  rtl::Instr ld2 = ins(rtl::Opcode::LdI);
  ld2.dst = b;
  ld2.int_imm = 9;
  fn.blocks[2].instrs = {ld2, j1};

  rtl::Instr phi = ins(rtl::Opcode::Phi);
  phi.dst = m;
  phi.phi_args = {{1, a}, {2, b}};
  rtl::Instr ret = ins(rtl::Opcode::Ret);
  ret.src1 = m;
  fn.blocks[3].instrs = {phi, ret};
  fn.validate();

  const std::string dump = rtl::print_function(fn);
  EXPECT_NE(dump.find("i3 = phi [bb1: i1, bb2: i2]"), std::string::npos)
      << dump;
  EXPECT_EQ(dump, rtl::print_function(fn));  // stable
  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
}

// ---------------------------------------------------------------------------
// GVN
// ---------------------------------------------------------------------------

TEST(SsaGvn, CollapsesRedundancyAndPassesCheckers) {
  const auto program = parse(kIntLoop);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;
  ssa::build_ssa(fn);
  const rtl::Function before = fn;

  EXPECT_TRUE(ssa::global_value_numbering(fn));
  // The duplicated n*n+1 collapses into copies.
  EXPECT_LT(count_ops(fn, rtl::Opcode::Bin), count_ops(before, rtl::Opcode::Bin));

  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
  const auto eq = validate::check_ssa_equivalence(before, fn);
  EXPECT_TRUE(eq.ok) << eq.message;
  const auto diff = validate::differential_check(program, original, fn, 8, 7);
  EXPECT_TRUE(diff.ok) << diff.message;
}

TEST(SsaGvn, EquivalenceCheckerRejectsWrongCopy) {
  const auto program = parse(kIntLoop);
  rtl::Function fn = lower(program);
  ssa::build_ssa(fn);
  const rtl::Function before = fn;

  // Plant a miscompile: rewrite the first Bin into a copy of an arbitrary
  // same-class vreg that does NOT compute the same value.
  bool planted = false;
  for (auto& blk : fn.blocks) {
    for (auto& i : blk.instrs) {
      if (i.op != rtl::Opcode::Bin) continue;
      rtl::Instr mov;
      mov.op = rtl::Opcode::Mov;
      mov.dst = i.dst;
      mov.src1 = i.src1;  // "dst = src1": drops the operation
      i = mov;
      planted = true;
      break;
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted);
  const auto eq = validate::check_ssa_equivalence(before, fn);
  EXPECT_FALSE(eq.ok);
  EXPECT_NE(eq.message.find("diverged"), std::string::npos) << eq.message;
}

// ---------------------------------------------------------------------------
// LICM
// ---------------------------------------------------------------------------

TEST(SsaLicm, HoistsInvariantsAndPassesCheckers) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;
  ssa::build_ssa(fn);
  const rtl::Function before = fn;

  EXPECT_TRUE(ssa::loop_invariant_code_motion(fn));

  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
  const auto eq = validate::check_ssa_equivalence(before, fn);
  EXPECT_TRUE(eq.ok) << eq.message;
  const auto diff = validate::differential_check(program, original, fn, 8, 9);
  EXPECT_TRUE(diff.ok) << diff.message;

  // The invariant x*2.0 left the loop: the loop body holds fewer Bins.
  const auto preds = rtl::predecessors(fn);
  const auto idom = rtl::immediate_dominators(fn);
  const auto forest = ssa::find_loops(fn, idom, preds);
  ASSERT_FALSE(forest.loops.empty());
  int in_loop_before = 0, in_loop_after = 0;
  for (rtl::BlockId b : forest.loops[0].blocks) {
    for (const auto& i : before.blocks[b].instrs)
      if (i.op == rtl::Opcode::Bin) ++in_loop_before;
    for (const auto& i : fn.blocks[b].instrs)
      if (i.op == rtl::Opcode::Bin) ++in_loop_after;
  }
  EXPECT_LT(in_loop_after, in_loop_before);
}

// ---------------------------------------------------------------------------
// Rotation
// ---------------------------------------------------------------------------

TEST(SsaRotate, RotatesAnnotatedLoopOnly) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;
  ssa::build_ssa(fn);

  EXPECT_TRUE(ssa::loop_rotation(fn));
  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
  const auto diff = validate::differential_check(program, original, fn, 8, 11);
  EXPECT_TRUE(diff.ok) << diff.message;

  // The unannotated loop keeps its shape.
  const auto p2 = parse(kIntLoop);
  rtl::Function plain = lower(p2);
  ssa::build_ssa(plain);
  EXPECT_FALSE(ssa::loop_rotation(plain));
}

// ---------------------------------------------------------------------------
// Unrolling + certificate
// ---------------------------------------------------------------------------

TEST(SsaUnroll, UnrollsAndCertifies) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  const rtl::Function original = fn;
  ssa::build_ssa(fn);
  const rtl::Function before = fn;

  ssa::UnrollCertificate cert;
  ASSERT_TRUE(ssa::loop_unrolling(fn, &cert));
  ASSERT_EQ(cert.loops.size(), 1u);
  const auto& row = cert.loops[0];
  EXPECT_EQ(row.original_bound, 8);
  EXPECT_GE(row.factor, 2);
  EXPECT_EQ(row.original_bound % row.factor, 0);
  EXPECT_EQ(row.residual_bound, row.original_bound / row.factor);

  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_TRUE(wf.ok) << wf.message;
  const auto cc = validate::check_unroll_certificate(before, fn, cert);
  EXPECT_TRUE(cc.ok) << cc.message;

  // The annotation trace keeps its event count (k copies of the residual
  // bound run n/k times each); only the format text changed.
  const auto strict =
      validate::differential_check(program, original, fn, 6, 13);
  EXPECT_FALSE(strict.ok);
  const auto norm =
      validate::differential_check(program, original, fn, 6, 13, true);
  EXPECT_TRUE(norm.ok) << norm.message;

  EXPECT_EQ(count_annots(fn, row.new_format), row.factor);
  EXPECT_EQ(count_annots(fn, row.old_format), 0);
}

TEST(SsaUnroll, LeavesUnannotatedLoopsAlone) {
  const auto program = parse(kIntLoop);
  rtl::Function fn = lower(program);
  ssa::build_ssa(fn);
  ssa::UnrollCertificate cert;
  EXPECT_FALSE(ssa::loop_unrolling(fn, &cert));
  EXPECT_TRUE(cert.loops.empty());
}

// ---------------------------------------------------------------------------
// Mutation tests: every new checker must fire on a planted defect
// ---------------------------------------------------------------------------

TEST(SsaMutation, WellformedRejectsNonDominatingUse) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  ssa::build_ssa(fn);
  ASSERT_TRUE(validate::check_ssa_wellformed(fn).ok);

  // Find a def in a non-entry block and force an entry-block instruction to
  // use it: the definition cannot dominate that use.
  rtl::VReg late = rtl::kNoVReg;
  rtl::RegClass late_cls = rtl::RegClass::I32;
  for (rtl::BlockId b = 1; b < fn.blocks.size() && late == rtl::kNoVReg; ++b)
    for (const auto& i : fn.blocks[b].instrs)
      if (auto d = i.def()) {
        late = *d;
        late_cls = fn.vregs[*d];
        break;
      }
  ASSERT_NE(late, rtl::kNoVReg);
  bool planted = false;
  for (auto& i : fn.blocks[0].instrs) {
    if (planted) break;
    rtl::for_each_use(i, [&](rtl::VReg& u) {
      if (!planted && fn.vregs[u] == late_cls) {
        planted = true;
        u = late;
      }
    });
  }
  ASSERT_TRUE(planted);
  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_FALSE(wf.ok);
  EXPECT_NE(wf.message.find("dominated"), std::string::npos) << wf.message;
}

TEST(SsaMutation, WellformedRejectsWrongPhiArity) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  ssa::build_ssa(fn);

  bool planted = false;
  for (auto& blk : fn.blocks) {
    for (auto& i : blk.instrs) {
      if (i.op == rtl::Opcode::Phi && i.phi_args.size() >= 2) {
        i.phi_args.pop_back();  // drop one incoming edge
        planted = true;
        break;
      }
    }
    if (planted) break;
  }
  ASSERT_TRUE(planted);
  const auto wf = validate::check_ssa_wellformed(fn);
  EXPECT_FALSE(wf.ok);
  EXPECT_NE(wf.message.find("phi"), std::string::npos) << wf.message;
}

TEST(SsaMutation, CertificateRejectsOffByOneResidual) {
  const auto program = parse(kLoopy);
  rtl::Function fn = lower(program);
  ssa::build_ssa(fn);
  const rtl::Function before = fn;
  ssa::UnrollCertificate cert;
  ASSERT_TRUE(ssa::loop_unrolling(fn, &cert));
  ASSERT_FALSE(cert.loops.empty());

  ssa::UnrollCertificate bad = cert;
  bad.loops[0].residual_bound += 1;  // claims a looser bound than derived
  const auto cc = validate::check_unroll_certificate(before, fn, bad);
  EXPECT_FALSE(cc.ok);
  EXPECT_NE(cc.message.find("residual"), std::string::npos) << cc.message;

  // Forged anchors must be rejected too.
  ssa::UnrollCertificate forged = cert;
  forged.loops[0].after_anchors.back() = {0, 0};
  EXPECT_FALSE(validate::check_unroll_certificate(before, fn, forged).ok);
}

// ---------------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------------

TEST(SsaPipeline, BracketRules) {
  driver::CompileOptions o;
  o.passes = {"ssa-gvn"};
  EXPECT_THROW(driver::resolve_pipeline(driver::Config::Verified, o),
               CompileError);
  o.passes = {"ssa-build", "cse", "ssa-out"};
  EXPECT_THROW(driver::resolve_pipeline(driver::Config::Verified, o),
               CompileError);
  o.passes = {"ssa-build", "ssa-gvn"};
  EXPECT_THROW(driver::resolve_pipeline(driver::Config::Verified, o),
               CompileError);
  o.passes = {"ssa-build", "ssa-gvn", "ssa-licm", "ssa-out", "cse"};
  EXPECT_NO_THROW(driver::resolve_pipeline(driver::Config::Verified, o));
}

TEST(SsaPipeline, UnknownPassListsRegisteredSteps) {
  driver::CompileOptions o;
  o.passes = {"ssa-gnv"};  // typo
  try {
    driver::resolve_pipeline(driver::Config::Verified, o);
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registered steps"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ssa-gvn"), std::string::npos) << msg;
  }
}

TEST(SsaPipeline, DefaultPipelineUnchangedWithoutSsa) {
  const driver::CompileOptions off;
  for (driver::Config c : driver::kAllConfigs)
    EXPECT_EQ(driver::resolve_pipeline(c, off), driver::pipeline_names(c));
}

TEST(SsaPipeline, SsaInsertsBracketBeforeRegalloc) {
  driver::CompileOptions o;
  o.ssa = true;
  const auto names = driver::resolve_pipeline(driver::Config::O2Full, o);
  const auto find = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n);
  };
  ASSERT_NE(find("ssa-build"), names.end());
  ASSERT_NE(find("ssa-out"), names.end());
  EXPECT_LT(find("ssa-build"), find("ssa-out"));
  EXPECT_LT(find("ssa-out"), find("regalloc"));
  // Pattern configurations ignore the flag.
  EXPECT_EQ(driver::resolve_pipeline(driver::Config::O0Pattern, o),
            driver::pipeline_names(driver::Config::O0Pattern));
}

TEST(SsaPipeline, ValidatedCompileBothConfigsBothTargets) {
  for (const std::string& src : {kLoopy, kIntLoop}) {
    const auto program = parse(src);
    for (const char* target : {"ppc", "rv32"}) {
      for (driver::Config config :
           {driver::Config::Verified, driver::Config::O2Full}) {
        driver::CompileOptions base;
        base.ssa = true;
        base.target = target;
        EXPECT_NO_THROW(validate::validated_compile(
            program, config, 6, 21, driver::ValidateLevel::Full, base))
            << driver::to_string(config) << " on " << target;
      }
    }
  }
}

TEST(SsaPipeline, GeneratedNodesValidateWithSsa) {
  const auto nodes = dataflow::generate_suite(901, 4);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    minic::Program program;
    dataflow::generate_node(nodes[i], &program);
    minic::type_check(program);
    driver::CompileOptions base;
    base.ssa = true;
    base.target = (i % 2 == 0) ? "ppc" : "rv32";
    EXPECT_NO_THROW(validate::validated_compile(
        program, (i % 2 == 0) ? driver::Config::Verified
                              : driver::Config::O2Full,
        5, 31 + i, driver::ValidateLevel::Full, base))
        << "node " << i;
  }
}

}  // namespace
}  // namespace vc
