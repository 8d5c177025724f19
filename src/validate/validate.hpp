// Translation validation (the stand-in for CompCert's Coq proof; §3.2/§4 of
// the paper discuss verified translation validation as the equivalent
// guarantee obtainable at lower cost).
//
// Validation boundary
// -------------------
// At ValidateLevel::Full the boundary is the FULL pipeline: every step the
// PassManager executes — RTL optimizations, register allocation, self-move
// removal, peephole fusion, and list scheduling — carries its own
// a-posteriori checker, and the result is cross-checked end to end against
// the reference interpreter. At ValidateLevel::Rtl (the historical
// behaviour) only the RTL passes are checked per step; the machine level
// (regalloc placement, selfmove/peephole/schedule) is covered solely by the
// end-to-end cross-check.
//
// Seven checkers, composed by `validated_compile`:
//
//  1. `check_structure_preserving` — a symbolic validator for rewrites that
//     keep the CFG and instruction count intact (CSE/copy-propagation and
//     store-to-load forwarding): both versions are symbolically executed in
//     dominator-tree preorder under hash-consed value numbering; every
//     instruction pair must define the same destination with an equivalent
//     value and perform identical side effects. Memory rewrites are checked
//     against an independent must-availability analysis. A pass accepted by
//     this checker is semantics-preserving.
//
//  2. `check_dead_store_elimination` — accepts removal of StoreStack /
//     StoreGlobal instructions that an independent backward location-
//     liveness analysis on the *before* function proves dead; everything
//     else must be preserved verbatim.
//
//  3. `differential_check` — bounded randomized equivalence of two RTL
//     versions of a function: both run on the RTL executor with identical
//     random inputs and global states; results, all globals, and annotation
//     traces must agree bit-exactly (runtime traps must coincide).
//
//  4. `check_register_allocation` — validates the allocator's spill
//     rewriting and coloring (Rideau & Leroy's "Validating register
//     allocation and spilling" shape): the spilled function must be the
//     original under a reload/store discipline that round-trips every
//     spilled value through its slot, and an independent liveness analysis
//     must prove that no two simultaneously live same-class registers share
//     a color — i.e. every use reads the value last assigned to its color.
//
//  5. `check_machine_equivalence` — validates self-move removal and the
//     peephole fixpoint: both machine functions are segmented at their
//     (identical) label/annotation markers and each segment is symbolically
//     executed; memory-access event lists, branch events, and every
//     live-out register (per machine liveness on the before function) must
//     agree. Fused operations (fmadd/fmsub, cmpwi, addi) normalize to the
//     expressions of their unfused forms.
//
//  6. `check_schedule` — validates the list scheduler: labels, annotations
//     and region boundaries must be untouched, each region of the scheduled
//     function must be a permutation of the original region, and the
//     permutation must respect every dependence edge (register/CR
//     RAW/WAR/WAW and memory order, the scheduler's own edge rule derived
//     independently from IssueModel::resources).
//
//  7. `cross_check_machine` — end-to-end: the linked binary on the machine
//     simulator against the mini-C interpreter over stateful call sequences
//     (covers code emission, encoding, linking — and whatever a per-pass
//     checker might have missed).
//
// The SSA mid-end (src/ssa, enabled by CompileOptions::ssa) adds three more
// (src/validate/ssa_check.cpp):
//
//  8. `check_ssa_wellformed` — structural SSA sanity after every in-bracket
//     step: single definitions, dominance of uses (phi args at their
//     predecessor), phi runs and predecessor sets, reachability.
//
//  9. `check_ssa_equivalence` — phi-aware symbolic value-graph equivalence
//     for the CFG- and name-preserving SSA rewrites (ssa-gvn, ssa-licm):
//     anchored events (memory, annotations, terminators, trapping divisions)
//     must appear in identical per-block order with equivalent operands;
//     phis are compared edge-wise as a bisimulation.
//
// 10. `check_unroll_certificate` — verifies the annotation-rewrite
//     certificate of ssa-unroll (factor k, bound n, residual ceil(n/k) with
//     k | n, anchor resolution, per-format annotation-count conservation)
//     before the IPET engine or the runtime monitor consume the rewritten
//     "loop <= N" rows.
//
// Symbolic terms
// --------------
// The three symbolic checkers (1, 5 and 9) share one value representation,
// the hash-consed TermTable of validate/term.hpp: a term is a uint32 id keyed
// by (kind, child ids, 64-bit immediate), with commutative operands ordered
// by id. Comparing two symbolic values is one integer comparison and a
// shared subterm is stored once, so each checker's cost is linear in the
// length of the code it executes (a segment for checker 5, a function for 1
// and 9), not in the size of the expression trees that code denotes.
// Checker 5 resets its table per segment and renders a term to text only
// inside a failure message, each rendered term capped at a fixed length.
// `differential_check` (3) builds one executor pair per call and resolves
// each global once.
//
// These checkers are themselves *tested* (seeded miscompilations must be
// caught — tests/machine_validate_test.cpp, tests/validate_test.cpp), not
// proved — the documented substitution for the Coq development. Their
// verdicts and failure messages on a corpus of seeded and generated mutants
// are pinned in tests/data/validator_verdicts.txt.
#pragma once

#include <cstdint>
#include <string>

#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "minic/ast.hpp"
#include "mach/codegen.hpp"
#include "regalloc/regalloc.hpp"
#include "rtl/rtl.hpp"
#include "ssa/ssa.hpp"

namespace vc::validate {

struct CheckResult {
  bool ok = true;
  std::string message;

  static CheckResult pass() { return {}; }
  static CheckResult fail(std::string m) { return {false, std::move(m)}; }
};

/// Symbolic equivalence for CFG- and count-preserving rewrites (CSE and
/// memory forwarding).
CheckResult check_structure_preserving(const rtl::Function& before,
                                       const rtl::Function& after);

/// Validates a dead-store-elimination step: `after` must be `before` minus
/// only StoreStack/StoreGlobal instructions whose location is provably dead
/// (never read again on any path) in `before`.
CheckResult check_dead_store_elimination(const rtl::Function& before,
                                         const rtl::Function& after);

/// Randomized differential equivalence of two RTL versions of one function
/// of `program` (globals/types are taken from the program). With
/// `normalize_loop_bounds` set, annotation formats parsing as "loop <= N"
/// compare as the bare event "loop" in both traces — positions, counts and
/// operand values are still bit-exact. Used for ssa-unroll, whose bound
/// rewrite is verified statically by `check_unroll_certificate` instead.
CheckResult differential_check(const minic::Program& program,
                               const rtl::Function& before,
                               const rtl::Function& after, int n_tests,
                               std::uint64_t seed,
                               bool normalize_loop_bounds = false);

/// Validates one register-allocation step: `after` must be `before` under
/// the spill-everywhere discipline (uses reload from the value's slot, defs
/// store back immediately; nothing else may touch spill slots), and
/// `alloc`'s coloring must be interference-free on `after` under an
/// independent liveness analysis: at every definition, no other
/// simultaneously live register of the same class holds the same color
/// (move sources holding the same value exempted, mirroring the allocator's
/// coalescing rule).
CheckResult check_register_allocation(const rtl::Function& before,
                                      const rtl::Function& after,
                                      const regalloc::Allocation& alloc,
                                      int k_int, int k_float);

/// Validates a machine-level rewrite that may fuse, fold, or delete
/// instructions but not reorder across labels/annotations or change control
/// flow (self-move removal, the peephole pass): per-segment symbolic
/// execution as described in the header comment.
CheckResult check_machine_equivalence(const mach::AsmFunction& before,
                                      const mach::TargetDesc& desc,
                                      const mach::AsmFunction& after);

/// Validates a scheduling step: a per-region permutation that respects the
/// dependence DAG and preserves the per-region instruction multiset.
CheckResult check_schedule(const mach::AsmFunction& before,
                           const mach::AsmFunction& after);

/// SSA structural sanity (see header comment, checker 8). Run after every
/// SSA-bracket step except ssa-out.
CheckResult check_ssa_wellformed(const rtl::Function& fn);

/// Phi-aware symbolic value-graph equivalence for CFG- and name-preserving
/// SSA rewrites (checker 9; accepts ssa-gvn and ssa-licm).
CheckResult check_ssa_equivalence(const rtl::Function& before,
                                  const rtl::Function& after);

/// Verifies the annotation-rewrite certificate emitted by ssa-unroll
/// (checker 10). `before`/`after` are the function around the unroll step.
CheckResult check_unroll_certificate(const rtl::Function& before,
                                     const rtl::Function& after,
                                     const ssa::UnrollCertificate& cert);

/// End-to-end: compiled image vs. reference interpreter on `fn_name`,
/// over `n_tests` stateful call sequences.
CheckResult cross_check_machine(const minic::Program& program,
                                const driver::Compiled& compiled,
                                const std::string& fn_name, int n_tests,
                                std::uint64_t seed);

/// Compiles `program` under `config` with every pass validated at `level`
/// (see the header comment for the boundary at each level; Off simply
/// compiles). Checker hooks are chained onto `base` — its own hook, stats,
/// pass selection and dump attachments all still apply — and every check
/// performed is counted into the per-pass telemetry. Throws ValidationError
/// on the first rejected step.
driver::Compiled validated_compile(
    const minic::Program& program, driver::Config config, int n_tests = 12,
    std::uint64_t seed = 1,
    driver::ValidateLevel level = driver::ValidateLevel::Rtl,
    driver::CompileOptions base = {});

/// Attaches validated compilation at `options->validate` to a fleet run as
/// its compile override (no-op when the level is Off). Campaigns use
/// n_tests=6, seed=1 — lower than vcc's 12: the differential checker runs
/// per RTL pass per function, and a campaign multiplies that by thousands
/// of jobs. vccd uses the same convention, so daemon records are
/// byte-identical to the in-process campaigns.
void attach_campaign_validation(driver::FleetOptions* options);

}  // namespace vc::validate
