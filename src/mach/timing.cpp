#include "mach/timing.hpp"

#include <algorithm>

#include "mach/target.hpp"

namespace vc::mach {

void IssueModel::reset() {
  cycle_ = 0;
  ready_.fill(0);
  slot_cycle_ = ~0ull;
  slots_used_ = 0;
  second_iu_used_ = false;
  std::fill(std::begin(unit_used_), std::end(unit_used_), false);
  std::fill(std::begin(unit_busy_until_), std::end(unit_busy_until_), 0ull);
}

namespace {

/// Calls `read(r)` / `write(r)` for each resource `ins` reads / writes, as
/// the op table's roles give them: registers in field order ra, rb, rc, rd,
/// then condition-register fields.
template <class Read, class Write>
constexpr void for_each_resource(const MInstr& ins, Read read, Write write) {
  constexpr int kFpr = 32;
  const OpDesc& d = op_desc(ins.op);
  const RegUse uses[4] = {d.ra, d.rb, d.rc, d.rd};
  const int regs[4] = {ins.ra, ins.rb, ins.rc, ins.rd};
  auto reg = [&](int i) { return (is_fpr(uses[i]) ? kFpr : 0) + regs[i]; };
  auto field_of = [](int bit) { return IssueModel::kCrBase + bit / 4; };
  for (int i = 0; i < 4; ++i)
    if (is_read(uses[i])) read(reg(i));
  if (d.cr & kCrbaR) read(field_of(ins.crba));
  if (d.cr & kCrbbR) read(field_of(ins.crbb));
  if (d.cr & kCrbdRW) read(field_of(ins.crbd));
  if (d.cr & kCrbitR) read(field_of(ins.crbit));
  if (d.cr & kAllCrR)
    for (int f = 0; f < 8; ++f) read(IssueModel::kCrBase + f);
  for (int i = 0; i < 4; ++i)
    if (is_write(uses[i])) write(reg(i));
  if (d.cr & kCrfW) write(IssueModel::kCrBase + ins.crf);
  if (d.cr & kCrbdRW) write(field_of(ins.crbd));
}

/// The longest read or write list of any op (the counts depend only on the
/// op's row, not on its operand values).
constexpr int longest_resource_list() {
  int most = 0;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    MInstr ins;
    ins.op = static_cast<MOp>(i);
    int n_reads = 0;
    int n_writes = 0;
    for_each_resource(ins, [&](int) { ++n_reads; }, [&](int) { ++n_writes; });
    most = std::max({most, n_reads, n_writes});
  }
  return most;
}
static_assert(longest_resource_list() == IssueModel::kMaxResourcesPerInstr,
              "kMaxResourcesPerInstr must equal the op table's longest list");

}  // namespace

void IssueModel::resources(const MInstr& ins, int* reads, int* n_reads,
                           int* writes, int* n_writes) {
  *n_reads = 0;
  *n_writes = 0;
  for_each_resource(
      ins, [&](int r) { reads[(*n_reads)++] = r; },
      [&](int r) { writes[(*n_writes)++] = r; });
}

std::uint64_t IssueModel::issue(const MInstr& ins, const int* reads,
                                int n_reads, const int* writes, int n_writes,
                                std::uint32_t extra_mem_cycles,
                                std::uint32_t fetch_stall) {
  const Unit unit = desc_->unit(ins.op);
  const int u = static_cast<int>(unit);

  // Earliest cycle the instruction may issue: after the current in-order
  // point, any fetch stall, operand readiness, and a free (non-blocked) unit.
  std::uint64_t t = cycle_ + fetch_stall;
  for (int i = 0; i < n_reads; ++i) t = std::max(t, ready_[reads[i]]);
  t = std::max(t, unit_busy_until_[u]);

  // Find an issue slot at or after t respecting dual-issue constraints.
  for (;;) {
    if (t != slot_cycle_) {
      slot_cycle_ = t;
      slots_used_ = 0;
      second_iu_used_ = false;
      std::fill(std::begin(unit_used_), std::end(unit_used_), false);
    }
    if (slots_used_ >= desc_->issue_width) {
      ++t;
      continue;
    }
    if (unit == Unit::IU) {
      // Two IU instructions may pair if the target allows pairing and the
      // second one is simple.
      const bool first_iu = !unit_used_[u] && !second_iu_used_;
      const bool can_second = unit_used_[u] && !second_iu_used_ &&
                              desc_->iu_pairing &&
                              !desc_->is_complex(ins.op);
      if (!first_iu && !can_second) {
        ++t;
        continue;
      }
      if (unit_used_[u]) second_iu_used_ = true;
      unit_used_[u] = true;
    } else {
      if (unit_used_[u]) {
        ++t;
        continue;
      }
      unit_used_[u] = true;
    }
    ++slots_used_;
    break;
  }

  const std::uint32_t lat = desc_->latency(ins.op) + extra_mem_cycles;
  for (int i = 0; i < n_writes; ++i) ready_[writes[i]] = t + lat;

  // Blocking ops (the dividers) occupy their unit until the result is ready.
  if (desc_->is_blocking(ins.op)) unit_busy_until_[u] = t + lat;

  cycle_ = t;  // in-order issue point
  return t;
}

void IssueModel::drain() {
  std::uint64_t t = cycle_ + 1;  // the branch itself occupies its cycle
  for (std::uint64_t r : ready_) t = std::max(t, r);
  for (std::uint64_t r : unit_busy_until_) t = std::max(t, r);
  cycle_ = t;
  slot_cycle_ = ~0ull;
}

void IssueModel::add_stall(std::uint64_t cycles) {
  cycle_ += cycles;
  slot_cycle_ = ~0ull;
}

}  // namespace vc::mach
