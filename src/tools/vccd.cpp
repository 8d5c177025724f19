// vccd — the long-running compile/WCET service daemon.
//
//   vccd --socket=PATH [--jobs=N] [--shards=N] [--cache-dir=DIR]
//        [--cache-budget-mb=N] [--shard-index=I]
//
// One front end (service/frontend.hpp) owns the socket and the protocol;
// behind it, single-process mode (the default) batches jobs itself, and
// --shards=N forks N worker vccd processes behind a supervisor that
// restarts dead shards. SIGTERM/SIGINT drain gracefully: in-flight jobs
// finish, the stats line goes to stderr, exit 0. Count flags take decimal
// values in [0, 1000000]; --shards at most 64.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "service/frontend.hpp"
#include "service/server.hpp"
#include "service/supervisor.hpp"
#include "support/strings.hpp"

namespace {

vc::service::Frontend* g_frontend = nullptr;

void handle_terminate(int) {
  // Async-signal-safe: only writes one byte to the wake pipe.
  if (g_frontend != nullptr) g_frontend->request_drain();
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH [--jobs=N] [--shards=N]\n"
               "          [--cache-dir=DIR] [--cache-budget-mb=N]\n"
               "          [--shard-index=I]\n",
               argv0);
  return 2;
}

std::string self_exe_path(const char* argv0) {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return buffer;
  }
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string cache_dir;
  int jobs = 0;
  int shards = 0;
  int shard_index = -1;
  int cache_budget_mb = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // "--name=value"; an argument without '=' has no flag name.
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string flag = has_value ? arg.substr(0, eq) : "";
    const std::string value = has_value ? arg.substr(eq + 1) : "";
    int* count = flag == "--jobs"              ? &jobs
                 : flag == "--shards"          ? &shards
                 : flag == "--shard-index"     ? &shard_index
                 : flag == "--cache-budget-mb" ? &cache_budget_mb
                                               : nullptr;
    if (count != nullptr) {
      const auto n = vc::parse_count_flag(value);
      if (!n || (count == &shards && *n > 64)) {
        std::fprintf(stderr, "vccd: error: bad %s value: %s\n", flag.c_str(),
                     arg.c_str());
        return 2;
      }
      *count = *n;
    } else if (flag == "--socket") {
      socket_path = value;
    } else if (flag == "--cache-dir") {
      cache_dir = value;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "vccd: error: unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "vccd: error: --socket=PATH is required\n");
    return usage(argv[0]);
  }
  if (shards > 0 && shard_index >= 0) {
    std::fprintf(stderr,
                 "vccd: error: --shards and --shard-index are exclusive\n");
    return 2;
  }

  vc::service::Frontend frontend(socket_path);
  std::string error;
  if (!frontend.start(&error)) {
    std::fprintf(stderr, "vccd: error: %s\n", error.c_str());
    return 1;
  }
  g_frontend = &frontend;
  install_signal_handlers();
  std::unique_ptr<vc::service::Frontend::Backend> backend;
  if (shards > 0) {
    vc::service::SupervisorOptions options;
    options.shards = shards;
    options.vccd_path = self_exe_path(argv[0]);
    if (jobs > 0) options.shard_args.push_back("--jobs=" + std::to_string(jobs));
    if (!cache_dir.empty())
      options.shard_args.push_back("--cache-dir=" + cache_dir);
    if (cache_budget_mb > 0)
      options.shard_args.push_back("--cache-budget-mb=" +
                                   std::to_string(cache_budget_mb));
    backend = std::make_unique<vc::service::ShardSupervisor>(
        &frontend, std::move(options));
    std::fprintf(stderr, "vccd: supervising %d shards on %s\n", shards,
                 socket_path.c_str());
  } else {
    backend = std::make_unique<vc::service::ServiceServer>(
        &frontend,
        vc::service::ServerOptions{
            .jobs = jobs,
            .cache_dir = cache_dir,
            .cache_budget_bytes =
                static_cast<std::uint64_t>(cache_budget_mb) * 1024 * 1024,
            .shard_index = shard_index});
    if (shard_index < 0)
      std::fprintf(stderr, "vccd: serving on %s\n", socket_path.c_str());
  }
  const int code = frontend.serve(backend.get());
  g_frontend = nullptr;
  return code;
}
