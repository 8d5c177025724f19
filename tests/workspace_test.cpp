// The per-job scratch layer behind the fleet runner's steady-state
// allocation behavior: the symbol interner, the workspace scratch pools,
// the heap-allocation counters, and the allocation-regression pins that
// keep the per-job compile path from quietly growing new heap traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "minic/typecheck.hpp"
#include "opt/opt.hpp"
#include "support/alloccount.hpp"
#include "support/diagnostics.hpp"
#include "support/symtab.hpp"
#include "support/workspace.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/wcet.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define VC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VC_TEST_ASAN 1
#endif
#endif

namespace vc {
namespace {

// ----------------------------------------------------------------- symtab

TEST(SymbolTableTest, InternAssignsDenseIdsInFirstSightOrder) {
  SymbolTable syms;
  EXPECT_EQ(syms.intern("alpha"), 0);
  EXPECT_EQ(syms.intern("beta"), 1);
  EXPECT_EQ(syms.intern("alpha"), 0);  // idempotent
  EXPECT_EQ(syms.intern("gamma"), 2);
  EXPECT_EQ(syms.size(), 3u);
  EXPECT_EQ(syms.name(0), "alpha");
  EXPECT_EQ(syms.name(2), "gamma");
}

TEST(SymbolTableTest, FindNeverInterns) {
  SymbolTable syms;
  (void)syms.intern("known");
  EXPECT_EQ(syms.find("known"), 0);
  EXPECT_EQ(syms.find("unknown"), kNoSymbol);
  EXPECT_EQ(syms.size(), 1u);  // the miss did not grow the table
}

TEST(SymbolTableTest, NameOutOfRangeIsAnError) {
  SymbolTable syms;
  EXPECT_THROW((void)syms.name(0), InternalError);
  EXPECT_THROW((void)syms.name(kNoSymbol), InternalError);
}

TEST(SymbolTableTest, ClearRestartsIds) {
  SymbolTable syms;
  (void)syms.intern("a");
  (void)syms.intern("b");
  syms.clear();
  EXPECT_EQ(syms.size(), 0u);
  EXPECT_EQ(syms.find("a"), kNoSymbol);
  EXPECT_EQ(syms.intern("z"), 0);
}

// -------------------------------------------------------------- workspace

TEST(ScratchPoolTest, LeaseClearsButKeepsCapacity) {
  ScratchPool<std::vector<std::uint32_t>> pool;
  std::size_t grown_capacity = 0;
  {
    auto v = pool.lease();
    for (std::uint32_t i = 0; i < 1000; ++i) v->push_back(i);
    grown_capacity = v->capacity();
  }
  EXPECT_EQ(pool.idle(), 1u);
  auto v = pool.lease();
  EXPECT_TRUE(v->empty());
  EXPECT_GE(v->capacity(), grown_capacity);  // the asset the pool preserves
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(ScratchPoolTest, ConcurrentLeasesAreDistinct) {
  ScratchPool<std::vector<std::uint32_t>> pool;
  auto a = pool.lease();
  auto b = pool.lease();
  a->push_back(1);
  b->push_back(2);
  EXPECT_NE(&*a, &*b);
  EXPECT_EQ((*a)[0], 1u);
  EXPECT_EQ((*b)[0], 2u);
}

TEST(WorkspaceTest, ThreadWorkspaceIsStablePerThread) {
  CompileWorkspace& a = this_thread_workspace();
  CompileWorkspace& b = this_thread_workspace();
  EXPECT_EQ(&a, &b);
}

// ------------------------------------------------------------- alloccount

TEST(AllocCountTest, ScopeSeesHeapTraffic) {
  alloc::Scope scope;
  auto p = std::make_unique<char[]>(10000);
  p[9999] = 1;
  const alloc::Counters d = scope.delta();
  EXPECT_GE(d.allocations, 1u);
  EXPECT_GE(d.bytes, 10000u);
}

// Pins the steady-state heap-allocation count of a warm compile+WCET job.
// This is the regression the whole workspace layer exists to protect: a
// copy-by-value or dropped reserve() on the per-job path shows up here as
// a count jump long before it is visible in wall-clock noise. The bound is
// ~2x the measured steady state, so it flags regressions of the "extra
// copy of every function" kind, not allocator jitter. Skipped under ASan:
// sanitizer runtimes allocate on their own schedule.
#if !defined(VC_TEST_ASAN)
TEST(AllocCountTest, WarmCompileJobAllocationBudget) {
  dataflow::GeneratorOptions options;
  options.min_blocks = 30;
  options.max_blocks = 40;
  const dataflow::Node node =
      dataflow::generate_node(987654, "allocpin", options);
  minic::Program program;
  dataflow::generate_node(node, &program);
  minic::type_check(program);

  auto job = [&] {
    const driver::Compiled compiled =
        driver::compile_program(program, driver::Config::O2Full);
    wcet::WcetOptions wopts;
    wopts.engine = wcet::WcetEngine::Both;
    (void)wcet::analyze_wcet(compiled.image,
                             dataflow::step_function_name(node), wopts);
  };
  job();  // warm the thread workspace, pools, and ILP scratch
  job();
  alloc::Scope scope;
  job();
  const std::uint64_t warm = scope.delta().allocations;
  // Measured steady state on the default preset is ~64k allocations for
  // this node (O2 compile + both WCET engines, IPET certificate included).
  // 130k — roughly 2x — is the alarm line.
  EXPECT_LT(warm, 130000u) << "per-job allocation count regressed";
}

// A simulated step allocates nothing, monitor included: the fetch check
// builds no message unless it fails, and the decode table and the LRU
// caches are sized once per Machine. The warm-up call fills the decode
// table; the cold-cache call after it must not touch the heap.
TEST(AllocCountTest, SimulatedCallAllocatesNothing) {
  dataflow::GeneratorOptions options;
  options.min_blocks = 30;
  options.max_blocks = 40;
  const dataflow::Node node = dataflow::generate_node(987654, "simpin", options);
  minic::Program program;
  dataflow::generate_node(node, &program);
  minic::type_check(program);
  const driver::Compiled compiled =
      driver::compile_program(program, driver::Config::Verified);
  const std::string fn = dataflow::step_function_name(node);
  const machine::MonitorSpec spec = wcet::build_monitor_spec(
      compiled.image, fn, machine::MonitorMode::Full);
  std::vector<minic::Value> args;
  for (const auto& p : program.find_function(fn)->params)
    args.push_back(p.type == minic::Type::F64 ? minic::Value::of_f64(1.25)
                                              : minic::Value::of_i32(1));

  machine::Machine m(compiled.image);
  m.arm_monitor(spec, machine::MonitorMode::Full);
  m.call(fn, args, minic::Type::I32);
  m.clear_caches();
  const std::uint64_t steps_before = m.monitor()->steps();
  alloc::Scope scope;
  m.call(fn, args, minic::Type::I32);
  const std::uint64_t allocations = scope.delta().allocations;
  EXPECT_GT(m.monitor()->steps() - steps_before, 100u);
  EXPECT_EQ(allocations, 0u) << "over " << m.stats().instructions
                             << " simulated step(s)";
}

// Constant propagation and dead code elimination over a function they
// leave unchanged allocate nothing: operands and successors are walked in
// place, and every table (dominators, slots, cells, liveness, predecessor
// lists) comes from per-thread scratch that the warm-up call sized.
TEST(AllocCountTest, IdleScalarPassesAllocateNothing) {
  dataflow::GeneratorOptions options;
  options.min_blocks = 30;
  options.max_blocks = 40;
  const dataflow::Node node = dataflow::generate_node(987654, "idlepin", options);
  minic::Program program;
  dataflow::generate_node(node, &program);
  minic::type_check(program);
  const driver::Compiled compiled =
      driver::compile_program(program, driver::Config::Verified);
  rtl::Function fn = compiled.artifacts.at(dataflow::step_function_name(node))
                         .rtl_optimized;
  // Settle the two passes' joint fixpoint (the pipeline's round group also
  // runs CSE, whose output constprop may still fold).
  while (opt::constant_propagation(fn) || opt::dead_code_elimination(fn)) {
  }
  ASSERT_FALSE(opt::constant_propagation(fn));  // warm-up
  ASSERT_FALSE(opt::dead_code_elimination(fn));
  alloc::Scope scope;
  EXPECT_FALSE(opt::constant_propagation(fn));
  EXPECT_FALSE(opt::dead_code_elimination(fn));
  EXPECT_EQ(scope.delta().allocations, 0u)
      << "over " << fn.instruction_count() << " instruction(s) in "
      << fn.blocks.size() << " block(s)";
}
#endif

}  // namespace
}  // namespace vc
