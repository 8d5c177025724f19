#include "support/workspace.hpp"

namespace vc {

CompileWorkspace& this_thread_workspace() {
  thread_local CompileWorkspace workspace;
  return workspace;
}

}  // namespace vc
