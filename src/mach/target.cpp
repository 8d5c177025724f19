#include "mach/target.hpp"

#include <set>

#include "support/diagnostics.hpp"

namespace vc::mach {
namespace {

bool pow2(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

[[noreturn]] void bad(const std::string& target, const std::string& field,
                      const std::string& why) {
  throw InternalError("invalid target descriptor '" + target +
                      "': field '" + field + "' " + why);
}

void check_gpr(const TargetDesc& d, const std::string& field, int r) {
  if (r < 0 || r >= 32) bad(d.name, field, "is not a GPR index (0..31)");
}

void check_fpr(const TargetDesc& d, const std::string& field, int r) {
  if (r < 0 || r >= 32) bad(d.name, field, "is not an FPR index (0..31)");
}

}  // namespace

void validate_target(const TargetDesc& d) {
  if (d.name.empty()) bad("?", "name", "is empty");
  if (d.lower == nullptr) bad(d.name, "lower", "is null");

  if (d.issue_width < 1 || d.issue_width > 4)
    bad(d.name, "issue_width", "must be 1..4");

  check_gpr(d, "stack_ptr", d.stack_ptr);
  check_gpr(d, "data_base", d.data_base);
  check_gpr(d, "scratch_gpr0", d.scratch_gpr0);
  check_gpr(d, "scratch_gpr1", d.scratch_gpr1);
  check_fpr(d, "scratch_fpr0", d.scratch_fpr0);
  check_fpr(d, "scratch_fpr1", d.scratch_fpr1);
  check_gpr(d, "ret_gpr", d.ret_gpr);
  check_fpr(d, "ret_fpr", d.ret_fpr);
  if (d.zero_gpr != -1) check_gpr(d, "zero_gpr", d.zero_gpr);
  if (d.scratch_gpr0 == d.scratch_gpr1)
    bad(d.name, "scratch_gpr1", "duplicates scratch_gpr0");
  if (d.scratch_fpr0 == d.scratch_fpr1)
    bad(d.name, "scratch_fpr1", "duplicates scratch_fpr0");

  if (d.alloc_gprs.empty()) bad(d.name, "alloc_gprs", "is empty");
  if (d.alloc_fprs.empty()) bad(d.name, "alloc_fprs", "is empty");
  const std::set<int> reserved_gprs = {d.stack_ptr, d.data_base,
                                       d.scratch_gpr0, d.scratch_gpr1,
                                       d.zero_gpr};
  std::set<int> seen;
  for (int r : d.alloc_gprs) {
    check_gpr(d, "alloc_gprs", r);
    if (!seen.insert(r).second) bad(d.name, "alloc_gprs", "has duplicates");
    if (reserved_gprs.count(r))
      bad(d.name, "alloc_gprs", "contains a reserved register");
  }
  seen.clear();
  for (int r : d.alloc_fprs) {
    check_fpr(d, "alloc_fprs", r);
    if (!seen.insert(r).second) bad(d.name, "alloc_fprs", "has duplicates");
    if (r == d.scratch_fpr0 || r == d.scratch_fpr1)
      bad(d.name, "alloc_fprs", "contains a reserved register");
  }

  if (d.n_arg_gprs < 1 || d.first_arg_gpr < 0 ||
      d.first_arg_gpr + d.n_arg_gprs > 32)
    bad(d.name, "n_arg_gprs", "argument GPR window out of range");
  if (d.n_arg_fprs < 1 || d.first_arg_fpr < 0 ||
      d.first_arg_fpr + d.n_arg_fprs > 32)
    bad(d.name, "n_arg_fprs", "argument FPR window out of range");

  if (!(d.imm_min < 0 && d.imm_max > 0))
    bad(d.name, "imm_min", "immediate range must straddle zero");

  for (const CacheConfig* c : {&d.machine.icache, &d.machine.dcache}) {
    const char* which =
        c == &d.machine.icache ? "machine.icache" : "machine.dcache";
    if (!pow2(c->sets)) bad(d.name, which, "sets must be a power of two");
    if (!pow2(c->ways)) bad(d.name, which, "ways must be a power of two");
    if (!pow2(c->line_bytes) || c->line_bytes < 8)
      bad(d.name, which, "line_bytes must be a power of two >= 8");
  }

  if (d.peephole.fold_cmp_imm && !d.has_cr)
    bad(d.name, "peephole.fold_cmp_imm", "requires a CR file");

  for (std::size_t i = 0; i < kNumOps; ++i) {
    const MOp op = static_cast<MOp>(i);
    if (!d.op(op).legal) continue;
    if (op_desc(op).cr != 0 && !d.has_cr)
      bad(d.name, "ops[" + mnemonic(op) + "].legal", "requires a CR file");
    if (d.op(op).latency == 0)
      bad(d.name, "ops[" + mnemonic(op) + "].latency", "must be nonzero");
  }
}

}  // namespace vc::mach
