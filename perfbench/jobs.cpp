// Jobs, the correctness gate, the decomposed (traced) job and the
// per-layer book shared by every workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "mach/target.hpp"
#include "minic/interp.hpp"
#include "minic/parser.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "perfbench.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/workspace.hpp"
#include "validate/validate.hpp"
#include "wcet/annotations.hpp"
#include "wcet/cache.hpp"
#include "wcet/cfg.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/value_analysis.hpp"

namespace perfbench {

using namespace vc;

namespace {

// The checker settings every campaign bench and vccd use, so daemon and
// in-process records stay byte-identical (bench_common.hpp, server.cpp).
constexpr int kValidateTests = 6;
constexpr std::uint64_t kValidateSeed = 1;

/// A copy of `node` with one Gain/Bias/ConstF parameter changed (the
/// model-level edit of the vccd workload). Value-only symbols keep the
/// generated code's shape, so an edit costs what the original node costs.
dataflow::Node edited_node(const dataflow::Node& node, Rng& rng) {
  const auto& blocks = node.blocks();
  std::vector<std::size_t> editable;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const dataflow::SymbolKind k = blocks[i].kind;
    if (k == dataflow::SymbolKind::Gain || k == dataflow::SymbolKind::Bias ||
        k == dataflow::SymbolKind::ConstF)
      editable.push_back(i);
  }
  const std::size_t target =
      editable.empty() ? blocks.size() : editable[rng.next_below(editable.size())];
  const double factor = 1.0 + 0.01 * static_cast<double>(rng.next_range(1, 9));

  dataflow::Node out(node.name());
  std::vector<std::pair<dataflow::BlockId, dataflow::BlockId>> feedback;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const dataflow::Block& b = blocks[i];
    std::vector<dataflow::BlockId> inputs = b.inputs;
    // Unit delays may read later blocks; those wires are reconnected once
    // every block exists, exactly as the generator closes feedback loops.
    if (b.kind == dataflow::SymbolKind::UnitDelay && !inputs.empty() &&
        inputs[0] >= i) {
      feedback.emplace_back(static_cast<dataflow::BlockId>(i), inputs[0]);
      inputs.clear();
    }
    std::vector<double> params = b.params;
    if (i == target) params[0] = params[0] * factor + 0.125;
    out.add(b.kind, std::move(inputs), std::move(params), b.table);
  }
  for (const auto& [delay, source] : feedback)
    out.connect_feedback(delay, source);
  out.validate();
  return out;
}

/// The execution phase of run_fleet's job (fleet.cpp run_exec_phase), call
/// for call: same input stream, same accumulation, same monitor handling.
/// With `interp_mismatch` set, each call is replayed on the reference
/// interpreter and compared.
void exec_phase(const Job& job, const mach::Image& image,
                machine::MonitorMode monitor, int cycles,
                driver::FleetRecord* record, Tracer* tracer, int parent,
                int job_id, std::string* interp_mismatch) {
  const minic::Program& program = *job.program;
  const minic::Function* fn = program.find_function(job.entry);
  if (fn == nullptr)
    throw std::runtime_error("no function '" + job.entry + "'");
  const bool has_io = program.find_global(dataflow::kIoBusGlobal) != nullptr;
  Rng rng(job.input_seed);
  machine::Machine m(image);
  machine::MonitorSpec monitor_spec;
  if (monitor != machine::MonitorMode::Off) {
    ScopedSpan span(tracer, "wcet.build_monitor_spec", parent, job_id);
    wcet::WcetOptions wopts;
    monitor_spec = wcet::build_monitor_spec(image, job.entry, monitor, wopts);
    m.arm_monitor(monitor_spec, monitor);
  }
  std::optional<minic::Interpreter> interp;
  if (interp_mismatch != nullptr) interp.emplace(program);
  try {
    std::vector<minic::Value> args;
    args.reserve(fn->params.size());
    for (int c = 0; c < cycles; ++c) {
      args.clear();
      for (const auto& p : fn->params) {
        if (p.type == minic::Type::F64)
          args.push_back(minic::Value::of_f64(rng.next_double(-20.0, 20.0)));
        else
          args.push_back(minic::Value::of_i32(
              static_cast<std::int32_t>(rng.next_range(-2, 2))));
      }
      if (has_io) {
        const minic::Value io = minic::Value::of_f64(rng.next_double(-3.0, 3.0));
        m.write_global(dataflow::kIoBusGlobal, 0, io);
        if (interp) interp->write_global(dataflow::kIoBusGlobal, 0, io);
      }
      const minic::Value result = m.call(job.entry, args, minic::Type::I32);
      const machine::ExecStats& s = m.stats();
      record->exec.cycles += s.cycles;
      record->exec.instructions += s.instructions;
      record->exec.dcache_reads += s.dcache_reads;
      record->exec.dcache_writes += s.dcache_writes;
      record->exec.dcache_read_misses += s.dcache_read_misses;
      record->exec.dcache_write_misses += s.dcache_write_misses;
      record->exec.ifetch_line_misses += s.ifetch_line_misses;
      record->exec.taken_branches += s.taken_branches;
      record->observed_max_cycles =
          std::max(record->observed_max_cycles, s.cycles);
      if (!interp || !interp_mismatch->empty()) continue;
      const std::string where =
          job.name + "/" + driver::to_string(job.config) + " call " +
          std::to_string(c);
      try {
        const minic::Value expected = interp->call(job.entry, args);
        if (fn->has_return && fn->return_type == minic::Type::I32 &&
            !(expected == result))
          *interp_mismatch = where + ": result " + result.to_string() +
                             " != interpreter " + expected.to_string();
      } catch (const minic::EvalError& e) {
        *interp_mismatch = where + ": interpreter trapped (" + e.what() +
                           ") where the machine did not";
      }
      for (const minic::Global& g : program.globals) {
        for (std::size_t i = 0; i < g.count && interp_mismatch->empty(); ++i) {
          const minic::Value want = interp->read_global(g.name, i);
          const minic::Value got = m.read_global(g.name, i, g.type);
          if (!(want == got))
            *interp_mismatch = where + ": global " + g.name + "[" +
                               std::to_string(i) + "] " + got.to_string() +
                               " != interpreter " + want.to_string();
        }
      }
    }
  } catch (const machine::MonitorError&) {
    record->monitor_violations += 1;
    if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
    throw;
  }
  if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
}

driver::Compiled compile(const Job& job, const JobSpec& spec,
                         pass::PipelineStats* stats) {
  driver::CompileOptions copts;
  copts.target = spec.target;
  copts.ssa = spec.ssa;
  copts.stats = stats;
  if (spec.validate == driver::ValidateLevel::Off)
    return driver::compile_program(*job.program, job.config, copts);
  return validate::validated_compile(*job.program, job.config, kValidateTests,
                                     kValidateSeed, spec.validate, copts);
}

template <class F>
double timed_ms(Tracer* tracer, const char* name, int job_id, F&& body) {
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, name, -1, job_id);
    body();
  }
  return ms_between(t0, Clock::now());
}

double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

int Tracer::begin(const char* name, int parent, int job) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.job = job;
  s.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"job\":%d}}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                 i, s.parent, s.job);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

driver::FleetOptions JobSpec::fleet_options(driver::Config config) const {
  driver::FleetOptions options;
  options.target = target;
  options.jobs = 1;
  options.configs = {config};
  options.exec_cycles = exec_cycles;
  options.wcet = true;
  options.wcet_engine = engine;
  options.monitor = monitor;
  options.ssa = ssa;
  if (validate != driver::ValidateLevel::Off) {
    const driver::ValidateLevel level = validate;
    options.compile_override = [level](const minic::Program& program,
                                       driver::Config c,
                                       const driver::CompileOptions& copts) {
      return validate::validated_compile(program, c, kValidateTests,
                                         kValidateSeed, level, copts);
    };
  }
  return options;
}

Suite build_suite(std::uint64_t suite_seed, int count,
                  std::optional<std::uint64_t> edit_seed) {
  Suite suite;
  const auto t0 = Clock::now();
  std::vector<dataflow::Node> nodes = dataflow::generate_suite(suite_seed, count);
  if (edit_seed) {
    Rng rng(*edit_seed);
    for (dataflow::Node& node : nodes) node = edited_node(node, rng);
  }
  std::vector<minic::Program> generated(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    generated[i].name = nodes[i].name();
    dataflow::generate_node(nodes[i], &generated[i]);
    suite.names.push_back(nodes[i].name());
    suite.entries.push_back(dataflow::step_function_name(nodes[i]));
  }
  const auto t1 = Clock::now();
  for (const minic::Program& p : generated) {
    suite.sources.push_back(minic::print_program(p));
    suite.programs.push_back(minic::parse_program(suite.sources.back(), p.name));
    minic::type_check(suite.programs.back());
  }
  suite.generate_ms = ms_between(t0, t1);
  suite.parse_ms = ms_between(t1, Clock::now());
  return suite;
}

std::vector<Job> make_jobs(const Suite& suite, std::uint64_t seed) {
  std::vector<Job> jobs;
  for (std::size_t u = 0; u < suite.programs.size(); ++u)
    for (const driver::Config config : driver::kAllConfigs)
      jobs.push_back({suite.names[u], &suite.programs[u], suite.entries[u],
                      config, driver::fleet_job_seed(seed, u)});
  return jobs;
}

driver::FleetRecord run_fleet_job(const Job& job, const JobSpec& spec) {
  const std::vector<driver::FleetUnit> units{
      {job.name, job.program, job.entry, job.input_seed}};
  driver::FleetReport report =
      driver::run_fleet(units, spec.fleet_options(job.config));
  return std::move(report.records.front());
}

Decomposed run_decomposed(const Job& job, const JobSpec& spec, Tracer* tracer,
                          int job_id, std::string* interp_mismatch) {
  Decomposed d;
  driver::FleetRecord& record = d.record;
  this_thread_workspace().reset();
  ScopedSpan job_span(tracer, "job", -1, job_id);
  d.job_span = job_span.id();
  record.name = job.name;
  record.config = job.config;
  try {
    {
      ScopedSpan span(tracer,
                      spec.validate == driver::ValidateLevel::Off
                          ? "driver.compile_program"
                          : "validate.validated_compile",
                      d.job_span, job_id);
      d.compile_span = span.id();
      d.compiled = compile(job, spec, &record.pass_stats);
    }
    const mach::Image& image = d.compiled.image;
    record.code_bytes = image.code_size_of(job.entry);
    if (spec.exec_cycles > 0) {
      ScopedSpan span(tracer, "machine.exec", d.job_span, job_id);
      d.exec_span = span.id();
      exec_phase(job, image, spec.monitor, spec.exec_cycles, &record, tracer,
                 span.id(), job_id, interp_mismatch);
    }
    {
      ScopedSpan span(tracer, "wcet.analyze_wcet", d.job_span, job_id);
      d.wcet_span = span.id();
      wcet::WcetOptions wopts;
      wopts.engine = spec.engine;
      const wcet::WcetResult r = wcet::analyze_wcet(image, job.entry, wopts);
      record.wcet_cycles =
          r.structural_cycles ? *r.structural_cycles : r.wcet_cycles;
      if (r.ipet) {
        record.wcet_ipet_cycles = r.ipet->wcet_cycles;
        record.wcet_ipet_capped_edges = r.ipet->capped_edges;
        record.wcet_ipet_certified = r.ipet->certificate_verified;
        d.ipet = r.ipet;
      }
    }
    record.ok = true;
  } catch (const std::exception& e) {
    record.ok = false;
    record.error = e.what();
    record.exec = machine::ExecStats{};
    record.observed_max_cycles = 0;
  }
  return d;
}

void check_record(const driver::FleetRecord& r, const JobSpec& spec,
                  Outcome* outcome) {
  const std::string who = r.name + "/" + driver::to_string(r.config);
  outcome->check(r.ok, who + ": job failed: " + r.error);
  if (!r.ok) return;
  outcome->check(r.wcet_cycles >= r.observed_max_cycles,
                 who + ": WCET bound below observed cycles");
  if (spec.engine != wcet::WcetEngine::Structural) {
    outcome->check(r.wcet_ipet_certified, who + ": IPET certificate not verified");
    outcome->check(r.wcet_ipet_cycles >= r.observed_max_cycles,
                   who + ": IPET bound below observed cycles");
  }
  outcome->check(r.monitor_violations == 0, who + ": monitor violation");
}

std::string records_digest(const std::vector<std::string>& core_dumps) {
  Fnv128 h;
  for (const std::string& dump : core_dumps) h.update_sized(dump);
  return h.digest().hex();
}

Ratios o0_ratios(const std::vector<driver::FleetRecord>& records) {
  constexpr std::size_t kConfigs = std::size(driver::kAllConfigs);
  double wcet = 0.0, code = 0.0, cycles = 0.0;
  int n = 0;
  for (std::size_t u = 0; u + kConfigs <= records.size(); u += kConfigs) {
    const driver::FleetRecord& o0 = records[u];
    const driver::FleetRecord& verified = records[u + 2];
    if (o0.wcet_cycles == 0 || o0.code_bytes == 0 || o0.exec.cycles == 0)
      continue;
    wcet += std::log(static_cast<double>(verified.wcet_cycles) /
                     static_cast<double>(o0.wcet_cycles));
    code += std::log(static_cast<double>(verified.code_bytes) /
                     static_cast<double>(o0.code_bytes));
    cycles += std::log(static_cast<double>(verified.exec.cycles) /
                       static_cast<double>(o0.exec.cycles));
    ++n;
  }
  if (n == 0) return {};
  return {std::exp(wcet / n), std::exp(code / n), std::exp(cycles / n)};
}

LayerBook::LayerBook(const std::vector<Job>& jobs, const JobSpec& spec)
    : jobs_(jobs), spec_(spec), best_(jobs.size()) {}

std::string LayerBook::round(Tracer* tracer, Outcome* outcome) {
  std::vector<std::string> dumps;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const Job& job = jobs_[j];
    Best& best = best_[j];
    const int id = static_cast<int>(j);

    // Alternate which path runs first, so neither always meets a cold
    // cache after the other.
    driver::FleetRecord fleet_record;
    const auto time_fleet = [&] {
      const auto t0 = Clock::now();
      fleet_record = run_fleet_job(job, spec_);
      best.fleet_ms = std::min(best.fleet_ms, ms_between(t0, Clock::now()));
    };
    if (rounds_ % 2 == 0) time_fleet();
    const Decomposed d = run_decomposed(job, spec_, tracer, id, nullptr);
    if (rounds_ % 2 != 0) time_fleet();

    check_record(fleet_record, spec_, outcome);
    dumps.push_back(driver::record_core_json(fleet_record).dump());
    outcome->check(driver::record_core_json(d.record).dump() == dumps.back(),
                   job.name + "/" + driver::to_string(job.config) +
                       ": traced record differs from run_fleet's");

    const double job_ms = tracer->ms(d.job_span);
    if (job_ms < best.job_ms) {
      best.job_ms = job_ms;
      best.compile_ms = d.compile_span >= 0 ? tracer->ms(d.compile_span) : 0.0;
      best.exec_ms = d.exec_span >= 0 ? tracer->ms(d.exec_span) : 0.0;
      best.wcet_ms = d.wcet_span >= 0 ? tracer->ms(d.wcet_span) : 0.0;
      best.glue_ms = job_ms - best.compile_ms - best.exec_ms - best.wcet_ms;
      best.passes = d.record.pass_stats;
      best.ipet = d.ipet;
      best.steps = d.record.exec.instructions;
      best.structural_cycles = d.record.wcet_cycles;
    }
    if (!d.record.ok) continue;

    // Outside probes: sub-layer calls the job makes internally, each timed
    // on its own against the job's compiled image.
    const mach::Image& image = d.compiled.image;
    const auto keep_min = [](double* slot, double v) { *slot = std::min(*slot, v); };
    if (spec_.validate != driver::ValidateLevel::Off) {
      keep_min(&best.plain_compile_ms,
               timed_ms(tracer, "probe.driver.compile_program", id, [&] {
                 driver::CompileOptions copts;
                 copts.target = spec_.target;
                 copts.ssa = spec_.ssa;
                 (void)driver::compile_program(*job.program, job.config, copts);
               }));
      keep_min(&best.cross_check_ms,
               timed_ms(tracer, "probe.validate.cross_check_machine", id, [&] {
                 for (const minic::Function& fn : job.program->functions)
                   (void)validate::cross_check_machine(
                       *job.program, d.compiled, fn.name, kValidateTests,
                       kValidateSeed ^ 0x9E37);
               }));
    }
    const mach::TargetDesc& desc = mach::target_by_name(image.target);
    wcet::Cfg cfg;
    wcet::ValueAnalysisResult values;
    keep_min(&best.cfg_ms, timed_ms(tracer, "probe.wcet.build_cfg", id, [&] {
               cfg = wcet::build_cfg(image, job.entry);
             }));
    keep_min(&best.values_ms,
             timed_ms(tracer, "probe.wcet.analyze_values", id, [&] {
               const wcet::AnnotIndex annots = wcet::index_annotations(
                   image, image.fn_entry.at(job.entry),
                   image.fn_end.at(job.entry));
               values = wcet::analyze_values(cfg, annots, desc);
             }));
    keep_min(&best.cache_ms,
             timed_ms(tracer, "probe.wcet.analyze_caches", id, [&] {
               (void)wcet::analyze_caches(cfg, values, desc.machine);
             }));
    keep_min(&best.structural_ms,
             timed_ms(tracer, "probe.wcet.analyze_wcet_structural", id, [&] {
               (void)wcet::analyze_wcet(image, job.entry, {});
             }));
    if (spec_.monitor != machine::MonitorMode::Off && spec_.exec_cycles > 0) {
      keep_min(&best.unarmed_exec_ms,
               timed_ms(tracer, "probe.machine.exec_unarmed", id, [&] {
                 driver::FleetRecord scratch;
                 exec_phase(job, image, machine::MonitorMode::Off,
                            spec_.exec_cycles, &scratch, nullptr, -1, id,
                            nullptr);
               }));
    }
  }
  ++rounds_;
  return records_digest(dumps);
}

void LayerBook::emit(Metrics* out) const {
  const bool validated = spec_.validate != driver::ValidateLevel::Off;
  const bool monitored = spec_.monitor != machine::MonitorMode::Off;
  const bool ipet = spec_.engine != wcet::WcetEngine::Structural;
  double fleet = 0, job = 0, glue = 0, compile = 0, plain = 0, cross = 0;
  double exec = 0, monitor = 0, cfg = 0, values = 0, cache = 0;
  double structural = 0, ipet_ms = 0, log_ratio = 0;
  double pivots = 0, bnb = 0, constraints = 0, steps = 0;
  int ratio_n = 0;
  pass::PipelineStats passes;
  for (const Best& b : best_) {
    fleet += finite_or_zero(b.fleet_ms);
    job += finite_or_zero(b.job_ms);
    glue += b.glue_ms;
    const double plain_ms = validated ? finite_or_zero(b.plain_compile_ms)
                                      : b.compile_ms;
    compile += b.compile_ms;
    plain += plain_ms;
    cross += validated ? finite_or_zero(b.cross_check_ms) : 0.0;
    const double unarmed = monitored ? finite_or_zero(b.unarmed_exec_ms) : b.exec_ms;
    exec += unarmed;
    monitor += monitored ? b.exec_ms - unarmed : 0.0;
    const double wcet_parts = finite_or_zero(b.cfg_ms) +
                              finite_or_zero(b.values_ms) +
                              finite_or_zero(b.cache_ms);
    cfg += finite_or_zero(b.cfg_ms);
    values += finite_or_zero(b.values_ms);
    cache += finite_or_zero(b.cache_ms);
    structural += std::max(0.0, finite_or_zero(b.structural_ms) - wcet_parts);
    if (ipet) ipet_ms += std::max(0.0, b.wcet_ms - finite_or_zero(b.structural_ms));
    passes += b.passes;
    steps += static_cast<double>(b.steps);
    if (b.ipet) {
      pivots += static_cast<double>(b.ipet->simplex_pivots);
      bnb += static_cast<double>(b.ipet->bnb_nodes);
      constraints += b.ipet->lp_constraints;
      if (b.structural_cycles > 0 && b.ipet->wcet_cycles > 0) {
        log_ratio += std::log(static_cast<double>(b.ipet->wcet_cycles) /
                              static_cast<double>(b.structural_cycles));
        ++ratio_n;
      }
    }
  }
  Metrics& m = *out;
  m["driver.compile_ms"] = plain;
  m["validate.ms"] = validated ? std::max(0.0, compile - plain) : 0.0;
  m["validate.cross_check_ms"] = cross;
  std::uint64_t checks = 0;
  for (const pass::PassStat& p : passes.passes) {
    m["pass." + p.name + ".ms"] = p.seconds * 1e3;
    m["pass." + p.name + ".rewrites"] = static_cast<double>(p.rewrites);
    checks += p.checks;
  }
  m["validate.checks"] = static_cast<double>(checks);
  m["machine.exec_ms"] = exec;
  m["machine.monitor_ms"] = std::max(0.0, monitor);
  m["machine.steps"] = steps;
  m["machine.steps_per_s"] = exec > 0 ? steps / (exec / 1e3) : 0.0;
  m["wcet.cfg_ms"] = cfg;
  m["wcet.values_ms"] = values;
  m["wcet.cache_ms"] = cache;
  m["wcet.structural_ms"] = structural;
  m["wcet.ipet_ms"] = ipet_ms;
  m["wcet.ipet_ratio_to_structural"] =
      ratio_n > 0 ? std::exp(log_ratio / ratio_n) : 0.0;
  m["ilp.pivots"] = pivots;
  m["ilp.bnb_nodes"] = bnb;
  m["ilp.lp_constraints"] = constraints;
  m["trace.unattributed_share"] = job > 0 ? glue / job : 0.0;
  m["trace.overhead_share"] = fleet > 0 ? job / fleet - 1.0 : 0.0;
  m["trace.jobs_per_s"] =
      job > 0 ? static_cast<double>(best_.size()) / (job / 1e3) : 0.0;
}

double clock_ghz() {
  constexpr int kIterations = 100000;
  double best_ms = std::numeric_limits<double>::infinity();
  for (int k = 0; k < 2; ++k) {
    volatile std::uint64_t seed = 1;
    std::uint64_t x = seed;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIterations; ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    best_ms = std::min(best_ms, ms_between(t0, Clock::now()));
    seed = x;
  }
  return 4.0 * kIterations / (best_ms * 1e6);
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sample.size()));
  return sample[std::min(sample.size() - 1, rank)];
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

}  // namespace perfbench
