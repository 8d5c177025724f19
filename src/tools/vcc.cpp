// vcc — the vcflight command-line driver.
//
// Compiles a mini-C source file under a chosen configuration and, on demand,
// prints the disassembly listing, runs a function on the machine simulator,
// computes its WCET bound, or performs validated compilation. Batch mode
// compiles every .mc file of a directory in parallel over a thread pool.
//
// Usage:
//   vcc [options] file.mc
//   vcc [options] --batch dir
//     --config=<O0|O1|verified|O2>   compiler configuration (default verified)
//     --target=<ppc|rv32>            target ISA (default ppc); strict: an
//                                    unknown or empty name is a usage error
//     --emit-asm                     print the disassembly listing
//     --wcet=<function>              print the WCET bound of <function>;
//                                    a name the image does not define is a
//                                    usage error (exit 2) listing its
//                                    functions
//     --wcet-engine=<structural|ipet|both>
//                                    path-analysis backend for --wcet:
//                                    structural longest-path (default), the
//                                    LP-based IPET engine with certificate
//                                    checking, or both (prints each bound
//                                    and the tightness delta)
//     --no-annotations               ignore the annotation table in WCET
//     --run=<function>[:a,b,...]     simulate <function> with f64/i32 args
//     --monitor=<off|cfg|full>       arm the runtime execution monitor on
//                                    --run: cfg checks every control
//                                    transfer against the reconstructed CFG,
//                                    full adds live annotation-interval and
//                                    loop-bound checks; a violation aborts
//                                    with the refuted fact (exit 1)
//     --validate[=off|rtl|full]      translation-validate every pass; bare
//                                    --validate means rtl, full adds the
//                                    machine-level checkers
//     --ssa                          enable the SSA mid-end bracket
//                                    (ssa-build .. ssa-out) on the verified
//                                    and O2 configurations; conflicts with
//                                    --passes (an explicit list already
//                                    decides the pipeline)
//     --passes=a,b,c                 replace the config's optimization passes
//     --disable-pass=NAME            drop one pass (repeatable)
//     Unknown step names in --passes / --disable-pass are usage errors
//     (exit 2) listing the registered steps.
//     --dump-after=PASS              print the IR after every applied run
//     --stats                        print per-function code sizes
//     --profile                      print the per-phase breakdown (compile /
//                                    wcet / exec wall time with heap
//                                    allocation counts) and the per-pass
//                                    telemetry table after the run
//     --batch                        compile every .mc file under <dir>
//     --jobs=N                       batch worker threads (0 = all cores)
//     --cache-dir=DIR                batch: content-addressed artifact cache
//     --cache-budget-mb=N            batch: cache LRU budget (0 = unlimited)
//     --connect=SOCK                 submit to a running vccd daemon on the
//                                    Unix socket SOCK instead of compiling
//                                    in-process (single file or --batch);
//                                    --wcet=auto resolves the entry on the
//                                    daemon
//     --exec-cycles=N                connect mode: step invocations per job
//                                    with pseudo-random inputs (0 = skip)
//
// A flag outside the modes it applies in (kModeRules) is a usage error
// (exit 2) naming the flag and the mode: a silently ignored flag would
// report a job that never ran. The knob flags come from the knob table
// (driver/run_spec.hpp), so a --connect job carries the local knobs.
//
// Batch mode exits non-zero if any file fails, and lists the failing files
// in a per-file pass/fail summary on stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/fleet.hpp"
#include "service/client.hpp"
#include "support/alloccount.hpp"
#include "machine/machine.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "mach/isa.hpp"
#include "rtl/rtl.hpp"
#include "support/strings.hpp"
#include "support/workspace.hpp"
#include "tools/vcc_cli.hpp"
#include "validate/validate.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/report.hpp"
#include "wcet/wcet.hpp"

namespace {

using namespace vc;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: vcc [knobs] [--emit-asm] [--wcet=FN] [--run=FN[:args]]\n"
      "           [--passes=a,b,c] [--dump-after=PASS] [--stats] [--profile]\n"
      "           file.mc\n"
      "       vcc [knobs] [--jobs=N] [--cache-dir=DIR] [--cache-budget-mb=N]\n"
      "           --batch dir\n"
      "       vcc --connect=SOCK [knobs] [--wcet=FN|auto]\n"
      "           (file.mc | --batch dir)\n"
      "knobs: %s\n"
      "(--exec-cycles needs --connect; --wcet-engine, --no-annotations and\n"
      "--monitor do not apply with --batch)\n",
      driver::spec_usage(driver::kCliVcc).c_str());
  std::exit(2);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "vcc: %s\n", message.c_str());
  std::exit(2);
}

/// The mode an invocation runs in, and the flags that apply in some modes
/// only; every other flag (the config and the compile-shaping knobs)
/// applies in all three. Batch mode is compile-only.
enum Mode : unsigned { kFile = 1, kBatch = 2, kConnect = 4 };
constexpr std::pair<const char*, unsigned> kModeRules[] = {
    {"--emit-asm", kFile},          {"--stats", kFile},
    {"--profile", kFile},           {"--dump-after", kFile},
    {"--passes", kFile},            {"--run", kFile},
    {"--wcet", kFile | kConnect},   {"--wcet-engine", kFile | kConnect},
    {"--monitor", kFile | kConnect}, {"--no-annotations", kFile | kConnect},
    {"--exec-cycles", kConnect},    {"--jobs", kBatch},
    {"--cache-dir", kBatch},        {"--cache-budget-mb", kBatch},
};

/// Parses + type-checks + compiles one source string.
driver::Compiled compile_source(const std::string& source,
                                const std::string& path,
                                const driver::JobSpec& spec,
                                driver::CompileOptions copts,
                                minic::Program* program_out) {
  minic::Program program = minic::parse_program(source, path);
  minic::type_check(program);
  static_cast<driver::PipelineSpec&>(copts) = spec;
  driver::Compiled compiled =
      spec.validate != driver::ValidateLevel::Off
          ? validate::validated_compile(program, spec.config, /*n_tests=*/12,
                                        /*seed=*/1, spec.validate,
                                        std::move(copts))
          : driver::compile_program(program, spec.config, copts);
  *program_out = std::move(program);
  return compiled;
}

/// --dump-after printer: RTL as the pretty-printed function, machine code as
/// one formatted instruction per op (labels interleaved at their positions).
void dump_state(const std::string& pass, const pass::FunctionState& s) {
  std::printf("== %s after %s ==\n", s.name().c_str(), pass.c_str());
  if (!s.emitted) {
    std::fputs(rtl::print_function(s.rtl).c_str(), stdout);
    return;
  }
  for (std::size_t i = 0; i < s.machine.ops.size(); ++i) {
    for (const auto& [label, pos] : s.machine.labels)
      if (pos == i) std::printf("L%d:\n", label);
    std::printf("  %s\n",
                mach::format_instr(s.machine.ops[i].ins,
                                  static_cast<std::uint32_t>(i * 4))
                    .c_str());
  }
  for (const auto& [label, pos] : s.machine.labels)
    if (pos == s.machine.ops.size()) std::printf("L%d:\n", label);
}

/// Splits a non-empty comma-separated --passes= list ("a,b,c").
std::vector<std::string> split_pass_list(const std::string& spec) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', start);
    items.push_back(spec.substr(start, comma - start));
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

std::string read_file_or_die(const std::string& path, int exit_code = 1) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "vcc: cannot open %s\n", path.c_str());
    std::exit(exit_code);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Batch mode front-end: the policy (parallel compile, per-file summary,
/// non-zero exit on any failure, optional artifact cache) lives in
/// tools::run_batch so it is unit-testable; this just prints.
int run_batch_cli(const std::string& dir, const tools::BatchOptions& options) {
  const tools::BatchResult result = tools::run_batch(dir, options);
  for (const std::string& line : result.lines) std::puts(line.c_str());
  if (result.total == 0) {
    std::fprintf(stderr, "vcc: %s\n", result.summary.c_str());
    return result.exit_code;
  }
  std::fprintf(stderr, "vcc: %s\n", result.summary.c_str());
  for (const std::string& path : result.failures)
    std::fprintf(stderr, "vcc: FAILED: %s\n", path.c_str());
  return result.exit_code;
}

/// --connect mode: pipeline every file as one "job" request over the daemon
/// socket, then collect the replies (which may arrive out of order) and
/// print a per-file summary. Exit 0 = all ok, 1 = a job failed or the
/// daemon dropped us, 2 = usage/environment.
int run_connect(const std::string& socket_path, const std::string& path,
                bool batch, const driver::JobSpec& spec,
                const std::string& wcet_fn) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (batch) {
    std::error_code ec;
    if (!fs::is_directory(fs::status(path, ec))) {
      std::fprintf(stderr, "vcc: not a directory: %s\n", path.c_str());
      return 2;
    }
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".mc")
        files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "vcc: no .mc files under %s\n", path.c_str());
      return 0;
    }
  } else {
    files.push_back(path);
  }

  service::ServiceClient client;
  if (!client.connect(socket_path)) {
    std::fprintf(stderr, "vcc: cannot connect to daemon socket %s\n",
                 socket_path.c_str());
    return 2;
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    service::JobRequest job;
    static_cast<driver::JobSpec&>(job) = spec;
    job.id = static_cast<std::int64_t>(i);
    job.name = fs::path(files[i]).stem().string();
    job.source = read_file_or_die(files[i], /*exit_code=*/2);
    job.entry = wcet_fn.empty() ? "auto" : wcet_fn;
    job.wcet = !wcet_fn.empty();
    // Deterministic per-file seed, independent of reply order and shard
    // placement: the same derivation the fleet uses, keyed by sorted index.
    job.input_seed = driver::fleet_job_seed(7, i);
    if (!client.send(service::job_to_json(job))) {
      std::fprintf(stderr, "vcc: daemon connection died mid-submit\n");
      return 1;
    }
  }

  std::map<std::int64_t, json::Value> replies;
  while (replies.size() < files.size()) {
    const auto reply = client.recv();
    if (!reply) {
      std::fprintf(stderr, "vcc: daemon connection died (%zu/%zu replies)\n",
                   replies.size(), files.size());
      return 1;
    }
    replies[reply->at("id").as_i64(-1)] = *reply;
  }

  int failures = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto it = replies.find(static_cast<std::int64_t>(i));
    if (it == replies.end()) {
      std::fprintf(stderr, "vcc: FAILED: %s (no reply)\n", files[i].c_str());
      ++failures;
      continue;
    }
    const json::Value& doc = it->second;
    if (!doc.at("ok").as_bool(false)) {
      std::fprintf(stderr, "vcc: FAILED: %s (%s)\n", files[i].c_str(),
                   doc.at("error").as_string("unknown error").c_str());
      ++failures;
      continue;
    }
    const json::Value& record = doc.at("record");
    std::string line = files[i] + ": ok";
    line += " cache=" + doc.at("cache").as_string("miss");
    line += " bytes=" + std::to_string(record.at("code_bytes").as_u64());
    if (!record.at("wcet_cycles").is_null())
      line += " wcet=" + std::to_string(record.at("wcet_cycles").as_u64());
    if (record.at("wcet_ipet_cycles").as_u64() > 0)
      line +=
          " ipet=" + std::to_string(record.at("wcet_ipet_cycles").as_u64());
    std::puts(line.c_str());
  }
  if (failures > 0)
    std::fprintf(stderr, "vcc: %d of %zu daemon job(s) failed\n", failures,
                 files.size());
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  driver::JobSpec spec;
  driver::CompileOptions copts;  // the local pipeline extras: passes, dump
  bool emit_asm = false;
  bool stats = false;
  bool profile = false;
  bool batch = false;
  int jobs = 0;
  std::string cache_dir;
  std::uint64_t cache_budget_bytes = 0;
  std::string wcet_fn;
  std::string run_spec;
  std::string connect_sock;
  std::vector<std::string> flags_seen;

  tools::SpecFlagParser knobs(driver::kCliVcc);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto flag = tools::split_flag(arg))
      flags_seen.push_back(flag->name);
    if (const auto knob = knobs.parse(arg, &spec)) {
      if (!knob->empty()) die(*knob);
    } else if (arg == "--emit-asm") {
      emit_asm = true;
    } else if (starts_with(arg, "--passes=")) {
      if (arg.size() == 9) die("empty --passes value");
      copts.passes = split_pass_list(arg.substr(9));
    } else if (starts_with(arg, "--dump-after=")) {
      if (arg.size() == 13) die("empty --dump-after value");
      copts.dump_after = arg.substr(13);
      copts.dump = dump_state;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--batch") {
      batch = true;
    } else if (starts_with(arg, "--jobs=")) {
      const auto parsed = parse_count_flag(arg.substr(7));
      if (!parsed) die("bad --jobs value '" + arg.substr(7) + "'");
      jobs = *parsed;
    } else if (starts_with(arg, "--cache-dir=")) {
      cache_dir = arg.substr(12);
      if (cache_dir.empty()) die("empty --cache-dir value");
    } else if (starts_with(arg, "--cache-budget-mb=")) {
      const auto parsed = parse_count_flag(arg.substr(18));
      if (!parsed) die("bad --cache-budget-mb value '" + arg.substr(18) + "'");
      cache_budget_bytes = static_cast<std::uint64_t>(*parsed) * 1024 * 1024;
    } else if (starts_with(arg, "--wcet=")) {
      wcet_fn = arg.substr(7);
    } else if (starts_with(arg, "--run=")) {
      run_spec = arg.substr(6);
    } else if (starts_with(arg, "--connect=")) {
      connect_sock = arg.substr(10);
      if (connect_sock.empty()) die("empty --connect value");
    } else if (!starts_with(arg, "--") && path.empty()) {
      path = arg;
    } else {
      usage();
    }
  }
  if (path.empty()) usage();
  // Every flag is honoured in the mode the invocation runs in, or rejected:
  // a silently ignored flag would report a job that never ran.
  const Mode mode =
      !connect_sock.empty() ? kConnect : (batch ? kBatch : kFile);
  for (const std::string& flag : flags_seen)
    for (const auto& [rule_flag, modes] : kModeRules)
      if (flag == rule_flag && (modes & mode) == 0)
        die(flag + " is not supported in " +
            (mode == kFile ? "single-file" : mode == kBatch ? "--batch"
                                                            : "--connect") +
            " mode");
  // Pass-name problems are usage errors: diagnose them here at parse time
  // (exit 2, listing the registered steps) instead of letting the pipeline
  // resolver throw mid-compile (exit 1).
  if (const auto bad = driver::check_pass_names(copts.passes)) die(*bad);
  if (spec.ssa && !copts.passes.empty())
    die("--ssa conflicts with --passes (an explicit pass list already "
        "decides the pipeline; include the ssa-build .. ssa-out bracket "
        "there instead)");

  if (mode == kConnect)
    return run_connect(connect_sock, path, batch, spec, wcet_fn);

  if (mode == kBatch) {
    tools::BatchOptions batch_options;
    static_cast<driver::JobSpec&>(batch_options) = spec;
    batch_options.jobs = jobs;
    batch_options.cache_dir = cache_dir;
    batch_options.cache_budget_bytes = cache_budget_bytes;
    return run_batch_cli(path, batch_options);
  }

  const std::string source = read_file_or_die(path);

  try {
    // --profile instrumentation: wall time + this thread's heap traffic per
    // phase, and the pass manager's per-pass telemetry for the compile.
    pass::PipelineStats pipeline_stats;
    std::vector<tools::ProfilePhase> phases;
    const auto measure = [&](const char* name, auto&& body) {
      if (!profile) {
        body();
        return;
      }
      const vc::alloc::Scope scope;
      const auto start = std::chrono::steady_clock::now();
      body();
      tools::ProfilePhase phase;
      phase.name = name;
      phase.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const vc::alloc::Counters delta = scope.delta();
      phase.allocations = delta.allocations;
      phase.alloc_bytes = delta.bytes;
      phases.push_back(std::move(phase));
    };
    if (profile) copts.stats = &pipeline_stats;

    minic::Program program;
    driver::Compiled compiled;
    measure("compile", [&] {
      compiled = compile_source(source, path, spec, std::move(copts), &program);
    });
    std::fprintf(
        stderr, "vcc: compiled %zu function(s) under %s%s\n",
        program.functions.size(), driver::to_string(spec.config).c_str(),
        spec.validate != driver::ValidateLevel::Off
            ? (" (validated: " + driver::to_string(spec.validate) + ")")
                  .c_str()
            : "");

    if (stats) {
      for (const auto& fn : program.functions)
        std::printf("%-32s %6u bytes\n", fn.name.c_str(),
                    compiled.image.code_size_of(fn.name));
      std::printf("%-32s %6u bytes\n", "(total code)",
                  compiled.image.code_size_bytes());
    }

    if (emit_asm) std::fputs(compiled.image.disassemble().c_str(), stdout);

    // Flow facts (CFG, value analysis, loop bounds) of the --wcet function,
    // reused by the --run monitor when it checks the same function.
    wcet::FlowFacts facts;
    if (!wcet_fn.empty()) {
      wcet::WcetOptions options;
      options.use_annotations = spec.use_annotations;
      options.engine = spec.wcet_engine;
      wcet::WcetResult r;
      measure("wcet", [&] {
        facts = wcet::flow_facts(compiled.image, wcet_fn,
                                 wcet::FlowDepth::Bounds,
                                 spec.use_annotations);
        r = wcet::analyze_wcet(compiled.image, facts, options);
      });
      std::fputs(wcet::format_report(compiled.image, wcet_fn, r).c_str(),
                 stdout);
    }

    if (!run_spec.empty()) {
      std::string fn_name = run_spec;
      std::string arg_spec;
      const std::size_t colon = run_spec.find(':');
      if (colon != std::string::npos) {
        fn_name = run_spec.substr(0, colon);
        arg_spec = run_spec.substr(colon + 1);
      }
      const minic::Function* fn = program.find_function(fn_name);
      if (fn == nullptr) {
        std::fprintf(stderr, "vcc: unknown function '%s'\n", fn_name.c_str());
        return 1;
      }
      const tools::CallArgs call = tools::parse_call_args(*fn, arg_spec);
      if (!call.ok()) die(call.error);
      machine::MonitorSpec monitor_spec;  // outlives the machine's monitor
      machine::Machine m(compiled.image);
      if (spec.monitor != machine::MonitorMode::Off) {
        if (facts.function != fn_name)
          facts = wcet::FlowFacts(fn_name, spec.use_annotations);
        wcet::deepen_flow_facts(compiled.image,
                                wcet::monitor_depth(spec.monitor), &facts);
        monitor_spec =
            wcet::build_monitor_spec(compiled.image, facts, spec.monitor);
        m.arm_monitor(monitor_spec, spec.monitor);
      }
      minic::Value result;
      measure("exec", [&] {
        result = m.call(fn_name, call.values,
                        fn->has_return ? fn->return_type : minic::Type::I32);
      });
      if (fn->has_return)
        std::printf("%s(...) = %s\n", fn_name.c_str(),
                    result.to_string().c_str());
      std::printf("cycles=%llu instructions=%llu dreads=%llu dwrites=%llu\n",
                  static_cast<unsigned long long>(m.stats().cycles),
                  static_cast<unsigned long long>(m.stats().instructions),
                  static_cast<unsigned long long>(m.stats().dcache_reads),
                  static_cast<unsigned long long>(m.stats().dcache_writes));
      if (m.monitor() != nullptr)
        std::printf("monitor=%s checked=%llu violations=0\n",
                    machine::to_string(m.monitor()->mode()).c_str(),
                    static_cast<unsigned long long>(m.monitor()->steps()));
    }

    if (profile) {
      std::fputs(tools::format_profile(phases, pipeline_stats).c_str(),
                 stdout);
      // The workspace arena the pipeline's pooled scratch bumps into —
      // peak is the high-water mark of live arena bytes for this job.
      const CompileWorkspace& ws = this_thread_workspace();
      std::printf("%-12s %12s %12llu %14llu (peak %llu, %zu chunk(s))\n",
                  "(arena)", "-",
                  static_cast<unsigned long long>(ws.arena.allocations()),
                  static_cast<unsigned long long>(ws.arena.bytes_allocated()),
                  static_cast<unsigned long long>(ws.arena.peak_bytes()),
                  ws.arena.chunk_count());
    }
  } catch (const wcet::UnknownFunctionError& e) {
    std::fprintf(stderr, "vcc: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcc: %s\n", e.what());
    return 1;
  }
  return 0;
}
