// Machine-level translation-validation tests: the three new checkers
// (register allocation, machine equivalence, schedule) must accept genuine
// compiles at every configuration — including generated dataflow nodes, the
// campaign workload — and reject seeded miscompilations of each transform.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "pass/pass.hpp"
#include "mach/codegen.hpp"
#include "mach/isa.hpp"
#include "mach/timing.hpp"
#include "mach/target.hpp"
#include "regalloc/regalloc.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

minic::Program parse(const std::string& src) {
  minic::Program p = minic::parse_program(src);
  minic::type_check(p);
  return p;
}

// One function with FP arithmetic, control flow, and global stores: enough
// pressure to exercise coloring, fusion targets (x*k+y), and memory order.
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

/// Captures the regalloc step's obligation inputs and the emitted machine
/// code of a single-function compile through the pass framework's hook.
struct Captured {
  rtl::Function ra_before;
  rtl::Function ra_after;
  regalloc::Allocation alloc;
  int k_int = 0;
  int k_float = 0;
  mach::AsmFunction machine;
  bool have_ra = false;
  bool have_machine = false;
};

Captured capture(const minic::Program& program, driver::Config config) {
  Captured cap;
  driver::CompileOptions copts;
  copts.hook = [&cap](const pass::StepTrace& t) {
    if (t.pass == "regalloc" && t.rtl_before != nullptr) {
      cap.ra_before = *t.rtl_before;
      cap.ra_after = t.state->rtl;
      cap.alloc = t.state->alloc;
      cap.k_int = t.state->k_int;
      cap.k_float = t.state->k_float;
      cap.have_ra = true;
    }
    if (t.pass == "emit") {
      cap.machine = t.state->machine;
      cap.have_machine = true;
    }
    return 0;
  };
  driver::compile_program(program, config, copts);
  return cap;
}

bool is_load_op(mach::MOp op) {
  return op == mach::MOp::Lwz || op == mach::MOp::Lwzx ||
         op == mach::MOp::Lfd || op == mach::MOp::Lfdx;
}

/// The scheduler's dependence rule, rebuilt here a third time (scheduler,
/// checker, test) so the test does not trust the code under test.
bool depend(const mach::MInstr& a, const mach::MInstr& b) {
  int ra[mach::IssueModel::kMaxResourcesPerInstr];
  int wa[mach::IssueModel::kMaxResourcesPerInstr];
  int rb[mach::IssueModel::kMaxResourcesPerInstr];
  int wb[mach::IssueModel::kMaxResourcesPerInstr];
  int nra = 0, nwa = 0, nrb = 0, nwb = 0;
  mach::IssueModel::resources(a, ra, &nra, wa, &nwa);
  mach::IssueModel::resources(b, rb, &nrb, wb, &nwb);
  const auto meets = [](const int* xs, int nx, const int* ys, int ny) {
    for (int i = 0; i < nx; ++i)
      for (int j = 0; j < ny; ++j)
        if (xs[i] == ys[j]) return true;
    return false;
  };
  if (meets(wa, nwa, rb, nrb)) return true;  // RAW
  if (meets(ra, nra, wb, nwb)) return true;  // WAR
  if (meets(wa, nwa, wb, nwb)) return true;  // WAW
  return mach::is_memory_op(a.op) && mach::is_memory_op(b.op) &&
         !(is_load_op(a.op) && is_load_op(b.op));
}

TEST(MachineValidation, FullLevelAcceptsGenuineCompiles) {
  // Hand-written kernels plus generated dataflow nodes (the campaign
  // workload) must validate cleanly at Full under every configuration —
  // zero rejections is the acceptance bar of the 2500-node campaign.
  std::vector<minic::Program> programs;
  programs.push_back(parse(kLawSource));
  programs.push_back(parse(R"(
    func i32 mix(i32 n, i32 m) {
      local i32 i; local i32 acc;
      acc = n * 3 + m;
      for (i = 0; i < 9; i = i + 1) { acc = acc + ((n >> (i & 3)) & 1); }
      return acc + n * 3;
    }
  )"));
  for (auto& node : dataflow::generate_suite(2026, 3)) {
    minic::Program p;
    p.name = node.name();
    dataflow::generate_node(node, &p);
    minic::type_check(p);
    programs.push_back(std::move(p));
  }
  for (const minic::Program& program : programs)
    for (driver::Config config : driver::kAllConfigs)
      EXPECT_NO_THROW(validate::validated_compile(
          program, config, /*n_tests=*/6, /*seed=*/7,
          driver::ValidateLevel::Full))
          << program.name << " under " << driver::to_string(config);
}

TEST(MachineValidation, FullLevelCountsMachineChecks) {
  // At Full the machine checkers actually fire: the telemetry must show
  // checks on regalloc, and on the machine passes when they applied.
  const minic::Program program = parse(kLawSource);
  pass::PipelineStats stats;
  driver::CompileOptions base;
  base.stats = &stats;
  validate::validated_compile(program, driver::Config::O2Full, /*n_tests=*/6,
                              /*seed=*/7, driver::ValidateLevel::Full,
                              std::move(base));
  const pass::PassStat* ra = stats.find("regalloc");
  ASSERT_NE(ra, nullptr);
  EXPECT_GE(ra->checks, 2u);  // allocation checker + differential check
}

TEST(MachineValidation, RegallocCheckerRejectsBrokenAllocations) {
  const Captured cap = capture(parse(kLawSource), driver::Config::O2Full);
  ASSERT_TRUE(cap.have_ra);
  const validate::CheckResult genuine = validate::check_register_allocation(
      cap.ra_before, cap.ra_after, cap.alloc, cap.k_int, cap.k_float);
  EXPECT_TRUE(genuine.ok) << genuine.message;

  // Corrupted bookkeeping: a wrong spill count must be rejected.
  {
    regalloc::Allocation bad = cap.alloc;
    bad.spill_count += 1;
    EXPECT_FALSE(validate::check_register_allocation(cap.ra_before,
                                                     cap.ra_after, bad,
                                                     cap.k_int, cap.k_float)
                     .ok);
  }

  // Corrupted spill rewriting: dropping an instruction from the rewritten
  // function breaks the reload/store discipline.
  {
    rtl::Function bad = cap.ra_after;
    for (auto& bb : bad.blocks) {
      if (bb.instrs.size() >= 2) {
        bb.instrs.erase(bb.instrs.begin());
        break;
      }
    }
    EXPECT_FALSE(validate::check_register_allocation(cap.ra_before, bad,
                                                     cap.alloc, cap.k_int,
                                                     cap.k_float)
                     .ok);
  }

  // Wrong coloring: forcing two same-class registers onto one color must be
  // rejected for at least one pair (simultaneously live somewhere).
  {
    int rejected = 0;
    const auto& locs = cap.alloc.locs;
    for (std::size_t v1 = 0; v1 < locs.size(); ++v1) {
      for (std::size_t v2 = 0; v2 < locs.size(); ++v2) {
        if (v1 == v2 || !locs[v1].in_reg || !locs[v2].in_reg) continue;
        if (cap.ra_after.vregs[v1] != cap.ra_after.vregs[v2]) continue;
        if (locs[v1].color == locs[v2].color) continue;
        regalloc::Allocation bad = cap.alloc;
        bad.locs[v1].color = locs[v2].color;
        if (!validate::check_register_allocation(cap.ra_before, cap.ra_after,
                                                 bad, cap.k_int, cap.k_float)
                 .ok)
          ++rejected;
      }
    }
    EXPECT_GT(rejected, 0) << "no color collision was ever rejected";
  }
}

TEST(MachineValidation, EquivalenceCheckerRejectsCorruptedRewrites) {
  const Captured cap = capture(parse(kLawSource), driver::Config::O2Full);
  ASSERT_TRUE(cap.have_machine);
  const mach::AsmFunction& m = cap.machine;
  EXPECT_TRUE(validate::check_machine_equivalence(m, mach::target_by_name("ppc"), m).ok);

  // A "peephole" that shifts a store's target location must be rejected:
  // the memory event lists diverge. For a relocated store the displacement
  // field is link-time-patched (mutating it pre-link is a semantic no-op the
  // checker rightly accepts), so shift the relocation addend there instead.
  std::size_t store_at = m.ops.size();
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    if (m.ops[i].ins.op == mach::MOp::Stw ||
        m.ops[i].ins.op == mach::MOp::Stfd) {
      store_at = i;
      break;
    }
  }
  ASSERT_LT(store_at, m.ops.size()) << "kernel has global stores";
  {
    mach::AsmFunction bad = m;
    if (bad.ops[store_at].reloc_sym.empty())
      bad.ops[store_at].ins.imm += 8;
    else
      bad.ops[store_at].reloc_addend += 8;
    const validate::CheckResult r = validate::check_machine_equivalence(m, mach::target_by_name("ppc"), bad);
    EXPECT_FALSE(r.ok);
  }

  // A rewrite that deletes a (live) store loses a memory event.
  {
    mach::AsmFunction bad = m;
    bad.ops.erase(bad.ops.begin() + static_cast<std::ptrdiff_t>(store_at));
    for (auto& [id, pos] : bad.labels)
      if (pos > store_at) --pos;
    for (auto& a : bad.annots)
      if (a.addr > store_at) --a.addr;
    EXPECT_FALSE(validate::check_machine_equivalence(m, mach::target_by_name("ppc"), bad).ok);
  }
}

TEST(MachineValidation, EquivalenceCheckerAcceptsMarkerMergeFromDeletion) {
  // Removing a self-move can merge two marker addresses into one; the
  // merged run sorts by id, which may invert the original distinct-address
  // order (a generated campaign node hit exactly this shape once Lookup1D
  // started emitting adjacent annotations). The checker must treat the
  // merged run as the same marker set, while still rejecting an actual
  // identity change at the merged address.
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
  fn.ops.push_back(mr(5, 5));  // self-move between the two annotations
  fn.ops.push_back(mr(6, 7));
  mach::AsmOp ret;
  ret.ins.op = mach::MOp::Blr;
  fn.ops.push_back(ret);
  fn.annots.push_back({1, "zz", {}});
  fn.annots.push_back({2, "aa", {}});  // id order inverts the address order

  mach::AsmFunction after = fn;
  ASSERT_EQ(mach::remove_self_moves(after), 1);
  ASSERT_EQ(after.annots[0].addr, 1u);
  ASSERT_EQ(after.annots[1].addr, 1u);  // merged
  const validate::CheckResult ok =
      validate::check_machine_equivalence(fn, mach::target_by_name("ppc"), after);
  EXPECT_TRUE(ok.ok) << ok.message;

  // An annotation whose identity really changed is still caught.
  mach::AsmFunction bad = after;
  bad.annots[1].format = "qq";
  EXPECT_FALSE(validate::check_machine_equivalence(fn, mach::target_by_name("ppc"), bad).ok);
}

// The hardwired zero register absorbs writes in the checker as on the
// machine: after `mr x0, x5; mr a0, x0` the return register holds 0, not
// x5, so the sequence differs from `mr a0, x5`.
TEST(MachineValidation, EquivalenceCheckerKeepsTheZeroRegisterZero) {
  const mach::TargetDesc& rv32 = mach::target_by_name("rv32");
  ASSERT_EQ(rv32.zero_gpr, 0);
  const auto mr = [](int rd, int ra) {
    mach::AsmOp op;
    op.ins.op = mach::MOp::Mr;
    op.ins.rd = static_cast<std::uint8_t>(rd);
    op.ins.ra = static_cast<std::uint8_t>(ra);
    return op;
  };
  mach::AsmOp ret;
  ret.ins.op = mach::MOp::Blr;
  mach::AsmFunction before;
  before.name = "zero";
  before.ops = {mr(0, 5), mr(rv32.ret_gpr, 0), ret};

  mach::AsmFunction forwarded = before;
  forwarded.ops = {mr(rv32.ret_gpr, 5), ret};
  EXPECT_FALSE(validate::check_machine_equivalence(before, rv32, forwarded).ok);

  // Another discarded write leaves the same value behind.
  mach::AsmFunction other_write = before;
  other_write.ops[0] = mr(0, 6);
  const validate::CheckResult same =
      validate::check_machine_equivalence(before, rv32, other_write);
  EXPECT_TRUE(same.ok) << same.message;
}

TEST(MachineValidation, ScheduleCheckerRejectsIllegalReorder) {
  const Captured cap = capture(parse(kLawSource), driver::Config::O2Full);
  ASSERT_TRUE(cap.have_machine);
  const mach::AsmFunction& m = cap.machine;
  EXPECT_TRUE(validate::check_schedule(m, m).ok);

  // Frame resizing is not a schedule.
  {
    mach::AsmFunction bad = m;
    bad.frame_bytes += 8;
    EXPECT_FALSE(validate::check_schedule(m, bad).ok);
  }

  // Swap an adjacent dependent pair inside a region: a permutation that
  // violates a dependence edge must be rejected.
  const auto boundary_at = [&m](std::size_t pos) {
    for (const auto& [id, p] : m.labels)
      if (p == pos) return true;
    for (const auto& a : m.annots)
      if (a.addr == pos) return true;
    return false;
  };
  std::size_t swap_at = m.ops.size();
  for (std::size_t i = 0; i + 1 < m.ops.size(); ++i) {
    const mach::MInstr& a = m.ops[i].ins;
    const mach::MInstr& b = m.ops[i + 1].ins;
    if (mach::is_branch(a.op) || mach::is_branch(b.op)) continue;
    if (boundary_at(i + 1)) continue;
    if (a == b) continue;  // swapping identical ops is a no-op
    if (depend(a, b)) {
      swap_at = i;
      break;
    }
  }
  ASSERT_LT(swap_at, m.ops.size()) << "kernel has an adjacent dependent pair";
  mach::AsmFunction bad = m;
  std::swap(bad.ops[swap_at], bad.ops[swap_at + 1]);
  const validate::CheckResult r = validate::check_schedule(m, bad);
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace vc
