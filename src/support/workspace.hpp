// The per-thread compile workspace, which holds no scratch.
//
// Warm per-job scratch lives with its owner: each analysis, pass, checker
// and solver that wants buffers reused across calls and fleet jobs keeps
// them in function-local `thread_local` storage (DESIGN.md §12). What is
// left here is the accessor and a no-op `reset()`, kept only because the
// benchmark driver (perfbench/jobs.cpp) still calls them.
#pragma once

namespace vc {

class CompileWorkspace {
 public:
  /// Does nothing: no job state lives in the workspace.
  void reset() {}
};

/// The calling thread's workspace (lazily constructed, never freed until
/// thread exit).
inline auto& this_thread_workspace() {
  thread_local CompileWorkspace workspace;
  return workspace;
}

}  // namespace vc
