// Per-worker compile workspace: reusable scratch for the whole pipeline.
//
// The fleet runner processes thousands of (unit, config) jobs per campaign,
// and each job used to allocate its analysis scratch — liveness bitsets,
// predecessor lists, RPO/dominator vectors, worklists — from a cold heap.
// A `CompileWorkspace` owns that scratch for the lifetime of one worker
// thread: leased vectors go back to their pool instead of being freed, so
// their capacities reach a steady state after the first few jobs and the
// rest of the campaign runs allocation-free on these paths.
//
// The workspace lives in src/support (the bottom layer), so it exposes
// *shape*-typed pools (vectors of u32 / u8 / size_t pairs, DenseBitset
// vectors) rather than IR-typed ones; rtl::BlockId and rtl::VReg are
// std::uint32_t, so the analyses lease u32 pools directly.
//
// Leases are RAII: `auto v = ws.u32_pool.lease();` hands out a cleared
// vector with retained capacity and returns it to the pool on scope exit
// (tables of rows keep their rows, each cleared; see lease()).
// Pools are unsynchronized by design — one workspace per thread, enforced
// socially (the fleet runner keeps one in thread_local storage).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/bitset.hpp"

namespace vc {

/// A pool of reusable T (T must be cheap to `clear()`). lease() prefers the
/// most recently returned object — the one whose buffers are warmest.
template <typename T>
class ScratchPool {
 public:
  class Lease {
   public:
    Lease(ScratchPool* pool, T obj) : pool_(pool), obj_(std::move(obj)) {}
    ~Lease() {
      if (pool_) pool_->give_back(std::move(obj_));
    }
    Lease(Lease&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)), obj_(std::move(o.obj_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    T& operator*() { return obj_; }
    T* operator->() { return &obj_; }

   private:
    ScratchPool* pool_;
    T obj_;
  };

  /// A cleared object with whatever capacity its last user grew it to. A
  /// table of rows (a vector of vectors or of bitsets) keeps its rows and
  /// only clears each one, so the rows' buffers survive as well; its users
  /// resize it to the shape they need.
  [[nodiscard]] Lease lease() {
    if (free_.empty()) return Lease(this, T{});
    T obj = std::move(free_.back());
    free_.pop_back();
    if constexpr (requires { obj.begin()->clear(); }) {
      for (auto& row : obj) row.clear();
    } else {
      obj.clear();
    }
    return Lease(this, std::move(obj));
  }

  [[nodiscard]] std::size_t idle() const { return free_.size(); }

 private:
  friend class Lease;
  void give_back(T obj) { free_.push_back(std::move(obj)); }

  std::vector<T> free_;
};

class CompileWorkspace {
 public:
  // Shape-typed scratch pools. BlockId/VReg are uint32, worklist flags are
  // uint8 (not vector<bool>: no proxy bits, clear() keeps capacity).
  ScratchPool<std::vector<std::uint32_t>> u32_pool;
  ScratchPool<std::vector<std::uint8_t>> u8_pool;
  ScratchPool<std::vector<std::pair<std::uint32_t, std::size_t>>> pair_pool;
  ScratchPool<std::vector<DenseBitset>> bitset_vec_pool;
  ScratchPool<DenseBitset> bitset_pool;
  /// Nested u32 lists (predecessor / dominator-children tables).
  ScratchPool<std::vector<std::vector<std::uint32_t>>> u32_lists_pool;

  /// Does nothing: pooled vectors are already back in their pools when a
  /// job's leases unwind. Kept only because perfbench/jobs.cpp calls it.
  void reset() {}
};

/// The calling thread's workspace (lazily constructed, never freed until
/// thread exit). Fleet workers and single-shot tools share this accessor so
/// every layer reaches the same per-thread scratch without plumbing a
/// pointer through call chains that do not otherwise care.
CompileWorkspace& this_thread_workspace();

}  // namespace vc
