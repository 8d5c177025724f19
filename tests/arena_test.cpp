// The per-job scratch layer behind the fleet runner's steady-state
// allocation behavior: the bump arena (alignment, chunk reuse across
// reset(), oversized-block fallback, ASan poisoning of free space), the
// symbol interner, the workspace scratch pools, the heap-allocation
// counters, and the allocation-regression pin that keeps the per-job
// compile path from quietly growing new heap traffic.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/compiler.hpp"
#include "machine/machine.hpp"
#include "minic/typecheck.hpp"
#include "opt/opt.hpp"
#include "support/alloccount.hpp"
#include "support/arena.hpp"
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
#if defined(VC_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace vc {
namespace {

// ------------------------------------------------------------------ arena

TEST(ArenaTest, RespectsRequestedAlignment) {
  Arena arena;
  for (std::size_t align : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{8}, std::size_t{16}}) {
    // Odd sizes force the bump pointer out of natural alignment, so the
    // next request must realign.
    void* a = arena.allocate(3, 1);
    void* b = arena.allocate(24, align);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % align, 0u)
        << "align " << align;
  }
}

TEST(ArenaTest, AllocArrayZeroInitializesAndIsWritable) {
  Arena arena;
  std::uint32_t* xs = arena.alloc_array<std::uint32_t>(1000);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(xs[i], 0u);
  for (std::size_t i = 0; i < 1000; ++i) xs[i] = static_cast<std::uint32_t>(i);
  EXPECT_EQ(xs[999], 999u);
}

TEST(ArenaTest, ResetReusesChunksInsteadOfGrowing) {
  Arena arena(4096);
  auto fill = [&] {
    for (int i = 0; i < 64; ++i) (void)arena.alloc_array<std::uint64_t>(32);
  };
  fill();
  const std::size_t chunks_after_first_epoch = arena.chunk_count();
  EXPECT_GE(chunks_after_first_epoch, 2u);  // 64*256B does not fit one chunk
  for (int epoch = 0; epoch < 10; ++epoch) {
    arena.reset();
    fill();
  }
  // Steady state: the same workload re-runs inside the chunks the first
  // epoch created; reset() must never hand the memory back.
  EXPECT_EQ(arena.chunk_count(), chunks_after_first_epoch);
}

TEST(ArenaTest, ResetRecyclesAddresses) {
  Arena arena;
  void* first = arena.allocate(128, 8);
  arena.reset();
  void* again = arena.allocate(128, 8);
  EXPECT_EQ(first, again);  // bump pointer rewound to the same chunk start
}

TEST(ArenaTest, OversizedRequestsGetDedicatedBlocks) {
  Arena arena(4096);
  // Larger than half a chunk: served by a dedicated block, so chunk
  // utilization is unaffected and the chunk list does not grow.
  const std::size_t before = arena.chunk_count();
  auto* big = arena.alloc_array<std::uint8_t>(3000);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAB, 3000);  // fully usable
  EXPECT_EQ(arena.chunk_count(), before);
  // Small allocations still bump the normal chunks afterwards.
  void* small = arena.allocate(64, 8);
  EXPECT_NE(small, nullptr);
  arena.reset();  // dedicated blocks are freed here; must not leak (asan)
  void* after = arena.allocate(64, 8);
  EXPECT_NE(after, nullptr);
}

TEST(ArenaTest, CountersTrackTraffic) {
  Arena arena;
  EXPECT_EQ(arena.allocations(), 0u);
  (void)arena.allocate(100, 8);
  (void)arena.allocate(50, 8);
  EXPECT_EQ(arena.allocations(), 2u);
  EXPECT_GE(arena.bytes_allocated(), 150u);
  EXPECT_GE(arena.peak_bytes(), 150u);
  const std::uint64_t bytes_before_reset = arena.bytes_allocated();
  arena.reset();
  (void)arena.allocate(10, 8);
  // bytes_allocated is monotonic across resets (it feeds --profile totals);
  // peak_bytes tracks the high-water mark across epochs.
  EXPECT_GT(arena.bytes_allocated(), bytes_before_reset);
  EXPECT_GE(arena.peak_bytes(), 150u);
}

TEST(ArenaTest, RejectsTinyChunkSize) {
  EXPECT_THROW(Arena arena(16), InternalError);
}

#if defined(VC_TEST_ASAN)
TEST(ArenaTest, FreeSpaceIsPoisonedUnderAsan) {
  Arena arena;
  auto* p = static_cast<unsigned char*>(arena.allocate(64, 8));
  // The allocation itself must be addressable; the free space immediately
  // after it must be poisoned like a heap redzone.
  EXPECT_EQ(__asan_region_is_poisoned(p, 64), nullptr);
  EXPECT_NE(__asan_region_is_poisoned(p + 64, 8), nullptr);
  arena.reset();
  // After reset the chunk interior is poisoned again until re-allocated.
  EXPECT_NE(__asan_region_is_poisoned(p, 8), nullptr);
  auto* q = static_cast<unsigned char*>(arena.allocate(32, 8));
  EXPECT_EQ(__asan_region_is_poisoned(q, 32), nullptr);
}
#endif

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

TEST(WorkspaceTest, ResetRewindsArenaButKeepsSymbols) {
  CompileWorkspace ws;
  const SymbolId id = ws.symbols.intern("gain");
  (void)ws.arena.allocate(512, 8);
  const std::uint64_t jobs_before = ws.jobs_reset();
  ws.reset();
  EXPECT_EQ(ws.jobs_reset(), jobs_before + 1);
  // Interned names survive reset: ids must stay stable for the worker's
  // lifetime (cached id lookups in long-lived tables depend on it).
  EXPECT_EQ(ws.symbols.find("gain"), id);
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

TEST(AllocCountTest, ArenaSteadyStateBypassesTheHeap) {
  Arena arena;
  // Warm the arena so every chunk the workload needs exists...
  for (int i = 0; i < 100; ++i) (void)arena.alloc_array<std::uint64_t>(64);
  arena.reset();
  // ...then the same workload after reset must be pure pointer bumping.
  alloc::Scope scope;
  for (int i = 0; i < 100; ++i) (void)arena.alloc_array<std::uint64_t>(64);
  EXPECT_EQ(scope.delta().allocations, 0u);
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
    this_thread_workspace().reset();
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
