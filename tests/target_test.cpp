// The target registry and descriptor-validation rules: every registered
// descriptor passes `validate_target` (it already ran at registration —
// these tests re-run it directly), and a malformed descriptor is rejected
// with an InternalError naming the offending field, so a broken port fails
// loudly at startup instead of miscompiling.
#include <gtest/gtest.h>

#include <string>

#include "mach/target.hpp"
#include "support/diagnostics.hpp"

namespace vc::mach {
namespace {

TEST(TargetRegistry, KnownTargetsRoundTrip) {
  const std::vector<std::string> names = target_names();
  ASSERT_GE(names.size(), 2u);
  EXPECT_EQ(names[0], default_target_name());
  for (const std::string& name : names) {
    const TargetDesc& desc = target_by_name(name);
    EXPECT_EQ(desc.name, name);
    EXPECT_NO_THROW(validate_target(desc));
  }
  // Both paper targets are registered, PPC first (the default, so images
  // that predate the target tag keep their old meaning).
  EXPECT_EQ(default_target_name(), "ppc");
  EXPECT_NE(std::find(names.begin(), names.end(), "rv32"), names.end());
}

TEST(TargetRegistry, UnknownNameIsACompileErrorListingKnownNames) {
  try {
    target_by_name("m68k");
    FAIL() << "unknown target accepted";
  } catch (const CompileError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("m68k"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ppc"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rv32"), std::string::npos) << msg;
  }
}

/// Expects validate_target(desc) to throw InternalError whose message names
/// `field`.
void expect_rejected(const TargetDesc& desc, const std::string& field) {
  try {
    validate_target(desc);
    FAIL() << "descriptor with broken '" << field << "' accepted";
  } catch (const InternalError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'" + field + "'"), std::string::npos)
        << "diagnostic does not name the field: " << msg;
  }
}

TEST(TargetValidation, BrokenDescriptorsAreNamedAndRejected) {
  const TargetDesc& good = target_by_name(default_target_name());

  {
    TargetDesc d = good;
    d.name.clear();
    expect_rejected(d, "name");
  }
  {
    TargetDesc d = good;
    d.lower = nullptr;
    expect_rejected(d, "lower");
  }
  {
    TargetDesc d = good;
    d.issue_width = 0;
    expect_rejected(d, "issue_width");
  }
  {
    TargetDesc d = good;
    d.issue_width = 9;
    expect_rejected(d, "issue_width");
  }
  {
    TargetDesc d = good;
    d.stack_ptr = 32;
    expect_rejected(d, "stack_ptr");
  }
  {
    // A register role leaking into the allocatable set would let the
    // allocator clobber the stack pointer.
    TargetDesc d = good;
    d.alloc_gprs.push_back(d.stack_ptr);
    expect_rejected(d, "alloc_gprs");
  }
  {
    TargetDesc d = good;
    d.alloc_fprs.push_back(d.alloc_fprs.front());
    expect_rejected(d, "alloc_fprs");
  }
  {
    TargetDesc d = good;
    d.scratch_gpr1 = d.scratch_gpr0;
    expect_rejected(d, "scratch_gpr1");
  }
  {
    TargetDesc d = good;
    d.imm_min = 0;
    expect_rejected(d, "imm_min");
  }
  {
    TargetDesc d = good;
    d.machine.icache.sets = 3;
    expect_rejected(d, "machine.icache");
  }
  {
    TargetDesc d = good;
    d.machine.dcache.line_bytes = 4;
    expect_rejected(d, "machine.dcache");
  }
  {
    // CR-dependent features on a CR-less target.
    TargetDesc d = good;
    d.has_cr = false;
    d.peephole.fold_cmp_imm = true;
    expect_rejected(d, "peephole.fold_cmp_imm");
  }
  {
    // An op whose row names a CR role, legal on a CR-less target.
    TargetDesc d = good;
    d.has_cr = false;
    d.peephole.fold_cmp_imm = false;
    expect_rejected(d, "ops[cmpw].legal");
  }
  {
    TargetDesc d = good;
    d.ops[static_cast<std::size_t>(MOp::Add)].latency = 0;
    expect_rejected(d, "ops[add].latency");
  }
}

}  // namespace
}  // namespace vc::mach
