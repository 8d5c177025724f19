#include "driver/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>

#include "artifact/image_io.hpp"
#include "dataflow/acg.hpp"
#include "minic/printer.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"
#include "wcet/monitor_spec.hpp"
#include "wcet/wcet.hpp"

namespace vc::driver {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- stats document schema -------------------------------------------------
//
// One document per artifact:
//   { "entry": "...", "code_bytes": N,
//     "results": [ { "params": {...}, "exec": {...},
//                    "observed_max_cycles": N,
//                    "wcet_cycles": N, "wcet_nocache_cycles": N } ] }
// The compile is fully determined by the artifact key; the derived results
// additionally depend on the run knobs, so each distinct "params" object
// (the job's kSaltParams fields, driver/run_spec.hpp) gets its own stanza
// (bounded ring, oldest dropped).

constexpr std::size_t kMaxResultStanzas = 16;

/// The job as the knob table sees it. The input seed only shapes results
/// when execution runs, so a job without execution keys its stanza with
/// seed 0 and replays for any seed.
JobSpec job_spec(const FleetOptions& options, Config config,
                 std::uint64_t input_seed) {
  JobSpec spec;
  static_cast<RunSpec&>(spec) = options;
  spec.config = config;
  spec.input_seed = options.exec_cycles > 0 ? input_seed : 0;
  return spec;
}

json::Value exec_stats_json(const machine::ExecStats& s) {
  json::Value e;
  e["cycles"] = json::Value(s.cycles);
  e["instructions"] = json::Value(s.instructions);
  e["dcache_reads"] = json::Value(s.dcache_reads);
  e["dcache_writes"] = json::Value(s.dcache_writes);
  e["dcache_read_misses"] = json::Value(s.dcache_read_misses);
  e["dcache_write_misses"] = json::Value(s.dcache_write_misses);
  e["ifetch_line_misses"] = json::Value(s.ifetch_line_misses);
  e["taken_branches"] = json::Value(s.taken_branches);
  return e;
}

machine::ExecStats exec_stats_from_json(const json::Value& e) {
  machine::ExecStats s;
  s.cycles = e.at("cycles").as_u64();
  s.instructions = e.at("instructions").as_u64();
  s.dcache_reads = e.at("dcache_reads").as_u64();
  s.dcache_writes = e.at("dcache_writes").as_u64();
  s.dcache_read_misses = e.at("dcache_read_misses").as_u64();
  s.dcache_write_misses = e.at("dcache_write_misses").as_u64();
  s.ifetch_line_misses = e.at("ifetch_line_misses").as_u64();
  s.taken_branches = e.at("taken_branches").as_u64();
  return s;
}

json::Value stanza_from_record(const FleetRecord& record,
                               json::Value params) {
  json::Value stanza;
  stanza["params"] = std::move(params);
  stanza["exec"] = exec_stats_json(record.exec);
  stanza["observed_max_cycles"] = json::Value(record.observed_max_cycles);
  stanza["wcet_cycles"] = json::Value(record.wcet_cycles);
  stanza["wcet_nocache_cycles"] = json::Value(record.wcet_nocache_cycles);
  stanza["wcet_ipet_cycles"] = json::Value(record.wcet_ipet_cycles);
  stanza["wcet_ipet_capped_edges"] =
      json::Value(static_cast<std::int64_t>(record.wcet_ipet_capped_edges));
  stanza["wcet_ipet_certified"] = json::Value(record.wcet_ipet_certified);
  stanza["monitored_steps"] = json::Value(record.monitored_steps);
  return stanza;
}

void record_from_stanza(const json::Value& doc, const json::Value& stanza,
                        FleetRecord* record) {
  record->code_bytes =
      static_cast<std::uint32_t>(doc.at("code_bytes").as_u64());
  record->exec = exec_stats_from_json(stanza.at("exec"));
  record->observed_max_cycles = stanza.at("observed_max_cycles").as_u64();
  record->wcet_cycles = stanza.at("wcet_cycles").as_u64();
  record->wcet_nocache_cycles = stanza.at("wcet_nocache_cycles").as_u64();
  record->wcet_ipet_cycles = stanza.at("wcet_ipet_cycles").as_u64();
  record->wcet_ipet_capped_edges =
      static_cast<int>(stanza.at("wcet_ipet_capped_edges").as_i64());
  record->wcet_ipet_certified = stanza.at("wcet_ipet_certified").as_bool();
  // Only ok jobs publish, so a replayed stanza is always violation-free.
  record->monitored_steps = stanza.at("monitored_steps").as_u64(0);
}

/// Runs the execution phase against `image`, accumulating into `record`.
/// An armed monitor deepens the job's flow `facts` to the depth its spec
/// needs, and no further.
void run_exec_phase(const FleetUnit& unit, const mach::Image& image,
                    std::uint64_t input_seed, const FleetOptions& options,
                    wcet::FlowFacts* facts, FleetRecord* record) {
  const auto t_exec = Clock::now();
  const minic::Function* fn = unit.program->find_function(unit.entry);
  if (fn == nullptr)
    throw std::runtime_error("no function '" + unit.entry + "'");
  const bool has_io =
      unit.program->find_global(dataflow::kIoBusGlobal) != nullptr;
  Rng rng(input_seed);
  machine::Machine m(image);
  // The monitored fact base (CFG edges, annotation claims, loop-bound rows)
  // comes from the job's flow facts; the armed monitor checks every step
  // below.
  machine::MonitorSpec monitor_spec;
  if (options.monitor != machine::MonitorMode::Off) {
    wcet::deepen_flow_facts(image, wcet::monitor_depth(options.monitor), facts);
    monitor_spec = wcet::build_monitor_spec(image, *facts, options.monitor);
    m.arm_monitor(monitor_spec, options.monitor);
  }
  try {
    std::vector<minic::Value> args;  // hoisted: one buffer for every cycle
    args.reserve(fn->params.size());
    for (int c = 0; c < options.exec_cycles; ++c) {
      if (options.cold_caches) m.clear_caches();
      args.clear();
      for (const auto& p : fn->params) {
        if (p.type == minic::Type::F64)
          args.push_back(minic::Value::of_f64(rng.next_double(-20.0, 20.0)));
        else
          args.push_back(minic::Value::of_i32(
              static_cast<std::int32_t>(rng.next_range(-2, 2))));
      }
      if (has_io)
        m.write_global(dataflow::kIoBusGlobal, 0,
                       minic::Value::of_f64(rng.next_double(-3.0, 3.0)));
      m.call(unit.entry, args, minic::Type::I32);
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
    }
  } catch (const machine::MonitorError&) {
    // A refuted static claim: account the violation (and the steps that
    // were checked up to it), then fail the job with the MonitorError text.
    record->monitor_violations += 1;
    if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
    record->exec_seconds = seconds_since(t_exec);
    throw;
  }
  if (m.monitor() != nullptr) record->monitored_steps = m.monitor()->steps();
  record->exec_seconds = seconds_since(t_exec);
}

/// Runs the WCET phase against `image`, filling `record`'s bound fields.
/// Every bound reuses the job's flow `facts`.
void run_wcet_phase(const mach::Image& image, const FleetOptions& options,
                    wcet::FlowFacts* facts, FleetRecord* record) {
  const auto t_wcet = Clock::now();
  wcet::deepen_flow_facts(image, wcet::FlowDepth::Bounds, facts);
  wcet::WcetOptions wopts;
  wopts.use_annotations = options.use_annotations;
  if (options.wcet) {
    wopts.engine = options.wcet_engine;
    const wcet::WcetResult r = wcet::analyze_wcet(image, *facts, wopts);
    // wcet_cycles carries the engine the caller selected: structural when
    // it ran (back-compatible with every existing consumer), else IPET.
    record->wcet_cycles =
        r.structural_cycles ? *r.structural_cycles : r.wcet_cycles;
    if (r.ipet) {
      record->wcet_ipet_cycles = r.ipet->wcet_cycles;
      record->wcet_ipet_capped_edges = r.ipet->capped_edges;
      record->wcet_ipet_certified = r.ipet->certificate_verified;
      record->ipet_pivots = r.ipet->simplex_pivots;
      record->ipet_bnb_nodes = r.ipet->bnb_nodes;
    }
  }
  if (options.wcet_nocache) {
    wopts.cache_analysis = false;
    wopts.engine = wcet::WcetEngine::Structural;  // cache ablation only
    record->wcet_nocache_cycles =
        wcet::analyze_wcet(image, *facts, wopts).wcet_cycles;
  }
  record->wcet_seconds = seconds_since(t_wcet);
}

/// Fails a job that executed above a bound it computed, naming the engine
/// whose bound the run exceeded.
void check_bounds_sound(const FleetOptions& options,
                        const FleetRecord& record) {
  const auto check_bound = [&](std::uint64_t bound, wcet::WcetEngine engine) {
    if (record.observed_max_cycles > bound)
      throw std::runtime_error(
          "unsound WCET bound: observed " +
          std::to_string(record.observed_max_cycles) + " > " +
          wcet::to_string(engine) + " bound " + std::to_string(bound));
  };
  if (options.wcet_engine != wcet::WcetEngine::Ipet)
    check_bound(record.wcet_cycles, wcet::WcetEngine::Structural);
  if (record.wcet_ipet_cycles > 0)
    check_bound(record.wcet_ipet_cycles, wcet::WcetEngine::Ipet);
}

/// Executes one (unit, config) job into `record`. Never throws. `source` is
/// the unit's printed program text (only set when a store is attached).
void run_job(const FleetUnit& unit, Config config, std::uint64_t input_seed,
             const FleetOptions& options, const std::string* source,
             FleetRecord* record) {
  record->name = unit.name;
  record->config = config;
  try {
    // Overridden compiles (validated campaigns) never touch the cache: the
    // point is to run the checkers, not to replay a previous run's verdict.
    artifact::ArtifactStore* store =
        options.compile_override ? nullptr : options.store;
    Hash128 key;
    json::Value key_fields;  // the knobs keying the artifact (meta "info")
    json::Value params;
    json::Value cached_doc;
    mach::Image cached_image;
    bool have_image = false;

    if (store != nullptr) {
      const JobSpec spec = job_spec(options, config, input_seed);
      key = artifact_key(spec, *source, unit.entry);
      key_fields = spec_json(spec, kSaltArtifact);
      params = spec_json(spec, kSaltParams);
      const std::string wanted = params.dump();
      const auto t_lookup = Clock::now();
      auto loaded = store->lookup(key);
      record->cache_lookup_seconds = seconds_since(t_lookup);
      if (loaded) {
        for (const json::Value& stanza : loaded->stats.at("results").as_array())
          if (stanza.at("params").dump() == wanted) {
            record_from_stanza(loaded->stats, stanza, record);
            record->cache_hit = true;
            record->ok = true;
            return;
          }
        // Same compile, different run parameters: reuse the executable,
        // recompute just the derived results. A cached image that fails to
        // deserialize is dropped and the job transparently compiles cold.
        artifact::ImageParse parsed =
            artifact::deserialize_image(loaded->image_bytes);
        if (parsed.ok()) {
          cached_image = std::move(parsed.image);
          cached_doc = std::move(loaded->stats);
          have_image = true;
          record->cache_image_hit = true;
        } else {
          store->invalidate(key);
        }
      }
    }

    Compiled compiled;
    if (!have_image) {
      const auto t_compile = Clock::now();
      CompileOptions copts;
      static_cast<PipelineSpec&>(copts) = options;
      copts.stats = &record->pass_stats;
      compiled = options.compile_override
                     ? options.compile_override(*unit.program, config, copts)
                     : compile_program(*unit.program, config, copts);
      record->compile_seconds = seconds_since(t_compile);
    }
    const mach::Image& image = have_image ? cached_image : compiled.image;
    // Compile-only units may carry no entry; the whole image size is the
    // meaningful code metric then.
    record->code_bytes =
        unit.entry.empty() ? image.code_size_bytes()
                           : image.code_size_of(unit.entry);

    // The job's flow facts (CFG, value analysis, loop bounds), computed
    // once and shared by the monitor spec and every WCET bound. Each phase
    // computes only the depth it needs, so an analysis error surfaces in
    // the same phase whichever consumers the job runs.
    wcet::FlowFacts facts(unit.entry, options.use_annotations);
    if (options.exec_cycles > 0)
      run_exec_phase(unit, image, input_seed, options, &facts, record);
    if (options.wcet || options.wcet_nocache)
      run_wcet_phase(image, options, &facts, record);
    if (options.exec_cycles > 0 && options.wcet)
      check_bounds_sound(options, *record);
    record->ok = true;

    if (store != nullptr) {
      const auto t_publish = Clock::now();
      json::Value stanza = stanza_from_record(*record, std::move(params));
      if (have_image) {
        // In-place append: copying the results array out and re-assigning
        // it cost one full deep copy of every cached stanza per publish.
        json::Array& results = cached_doc["results"].as_array_mut();
        results.push_back(std::move(stanza));
        while (results.size() > kMaxResultStanzas)
          results.erase(results.begin());
        store->update_stats(key, cached_doc);
      } else {
        json::Value doc;
        doc["entry"] = json::Value(unit.entry);
        doc["code_bytes"] = json::Value(record->code_bytes);
        json::Array results;
        results.push_back(std::move(stanza));
        doc["results"] = json::Value(std::move(results));
        json::Value info;
        info["unit"] = json::Value(unit.name);
        info["spec"] = std::move(key_fields);
        info["compiler_version"] = json::Value(kCompilerVersion);
        info["source_bytes"] =
            json::Value(static_cast<std::uint64_t>(source->size()));
        store->publish(key, artifact::serialize_image(image),
                       artifact::annotation_text(image), doc, std::move(info));
      }
      record->cache_publish_seconds = seconds_since(t_publish);
    }
  } catch (const std::exception& e) {
    record->ok = false;
    record->error = e.what();
    // A failed job's partially accumulated execution results are not
    // observations: a truncated run (FuelExhausted) or an aborted one must
    // never contribute an observed_max_cycles baseline that makes the WCET
    // engines look sound against under-observed executions.
    record->exec = machine::ExecStats{};
    record->observed_max_cycles = 0;
  }
}

}  // namespace

std::uint64_t fleet_job_seed(std::uint64_t suite_seed, std::size_t index) {
  // One SplitMix64 step over (seed ^ index·golden-ratio): decorrelates the
  // per-unit streams while staying a pure function of (seed, index).
  std::uint64_t z = suite_seed ^
                    (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(index) + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double FleetReport::nodes_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(records.size()) / wall_seconds;
}

std::string FleetReport::throughput_summary() const {
  char buf[384];
  std::snprintf(
      buf, sizeof buf,
      "fleet: %zu node(s) x %zu config(s) on %d worker(s): %.2fs wall, "
      "%.1f jobs/s\n"
      "fleet: phase time (summed over jobs): compile %.2fs, execute %.2fs, "
      "wcet %.2fs",
      units, configs, jobs, wall_seconds, nodes_per_second(), compile_seconds,
      exec_seconds, wcet_seconds);
  std::string out = buf;
  if (!pass_stats.passes.empty()) {
    // One entry per pass actually run, in pipeline order — the pipeline is
    // data now, so the footer follows it instead of a hard-wired pass list.
    out += "\nfleet: pass time:";
    bool first = true;
    std::uint64_t total_checks = 0;
    for (const pass::PassStat& p : pass_stats.passes) {
      std::snprintf(buf, sizeof buf, "%s %s %.3fs", first ? "" : ",",
                    p.name.c_str(), p.seconds);
      out += buf;
      first = false;
      total_checks += p.checks;
    }
    if (total_checks > 0) {
      std::snprintf(buf, sizeof buf,
                    "\nfleet: validation: %llu per-pass check(s) passed",
                    static_cast<unsigned long long>(total_checks));
      out += buf;
    }
  }
  if (ipet_records > 0) {
    std::snprintf(
        buf, sizeof buf,
        "\nfleet: wcet engine %s: %llu IPET bound(s), %llu certificate(s) "
        "verified, %llu with infeasible-edge cap(s)",
        wcet::to_string(spec.wcet_engine).c_str(),
        static_cast<unsigned long long>(ipet_records),
        static_cast<unsigned long long>(ipet_certified),
        static_cast<unsigned long long>(ipet_capped_edge_records));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\nfleet: ipet solver: %lld pivot(s), %lld b&b node(s)",
                  static_cast<long long>(ipet_pivots),
                  static_cast<long long>(ipet_bnb_nodes));
    out += buf;
    if (spec.wcet_engine == wcet::WcetEngine::Both) {
      std::snprintf(
          buf, sizeof buf,
          "\nfleet: tightness: IPET strictly below structural on %llu/%llu, "
          "mean tightening %.3f%%",
          static_cast<unsigned long long>(ipet_tighter),
          static_cast<unsigned long long>(ipet_records),
          100.0 * ipet_tightening_sum /
              static_cast<double>(ipet_records));
      out += buf;
    }
  }
  if (spec.monitor != machine::MonitorMode::Off) {
    std::snprintf(
        buf, sizeof buf,
        "\nfleet: monitor (%s): %llu record(s) armed, %llu step(s) checked, "
        "%llu violation(s)%s",
        machine::to_string(spec.monitor).c_str(),
        static_cast<unsigned long long>(monitored_records),
        static_cast<unsigned long long>(monitored_steps),
        static_cast<unsigned long long>(monitor_violations),
        monitor_violations > 0 ? " <-- STATIC CLAIM REFUTED" : "");
    out += buf;
  }
  if (cache_enabled) {
    std::snprintf(
        buf, sizeof buf,
        "\nfleet: cache: %llu full hit(s), %llu image hit(s), %llu miss(es), "
        "lookup %.2fs, publish %.2fs\nfleet: %s",
        static_cast<unsigned long long>(cache_full_hits),
        static_cast<unsigned long long>(cache_image_hits),
        static_cast<unsigned long long>(cache_misses), cache_lookup_seconds,
        cache_publish_seconds, store_stats.summary().c_str());
    out += buf;
  }
  return out;
}

FleetReport run_fleet(const std::vector<FleetUnit>& units,
                      const FleetOptions& options) {
  if (options.jobs < 0)
    throw std::invalid_argument(
        "FleetOptions::jobs must be >= 0 (0 = one worker per hardware "
        "thread), got " + std::to_string(options.jobs));
  if (options.validate != ValidateLevel::Off && !options.compile_override)
    throw std::invalid_argument(
        "FleetOptions::validate is '" + to_string(options.validate) +
        "' but no compile_override is attached "
        "(validate::attach_campaign_validation)");

  FleetReport report;
  report.units = units.size();
  report.configs = options.configs.size();
  report.jobs = options.jobs > 0
                    ? options.jobs
                    : static_cast<int>(default_worker_count());
  report.records.resize(units.size() * options.configs.size());
  report.cache_enabled = options.store != nullptr;
  report.spec = options;

  // The artifact key hashes the unit's *source text*; print each program
  // once up front (cheap, serial) instead of once per (unit, config) job.
  std::vector<std::string> sources;
  if (options.store != nullptr) {
    sources.reserve(units.size());
    for (const FleetUnit& unit : units)
      sources.push_back(minic::print_program(*unit.program));
  }

  const auto t_start = Clock::now();
  // Job j = (unit j / nconfigs, config j % nconfigs); each writes slot j.
  parallel_for(report.records.size(), static_cast<std::size_t>(report.jobs),
               [&](std::size_t j) {
                 const std::size_t u = j / options.configs.size();
                 const std::size_t c = j % options.configs.size();
                 const std::uint64_t seed =
                     units[u].input_seed
                         ? *units[u].input_seed
                         : fleet_job_seed(options.suite_seed, u);
                 run_job(units[u], options.configs[c], seed, options,
                         sources.empty() ? nullptr : &sources[u],
                         &report.records[j]);
               });
  report.wall_seconds = seconds_since(t_start);

  for (const FleetRecord& r : report.records) {
    report.compile_seconds += r.compile_seconds;
    report.exec_seconds += r.exec_seconds;
    report.wcet_seconds += r.wcet_seconds;
    report.pass_stats += r.pass_stats;
    report.cache_lookup_seconds += r.cache_lookup_seconds;
    report.cache_publish_seconds += r.cache_publish_seconds;
    report.ipet_pivots += r.ipet_pivots;
    report.ipet_bnb_nodes += r.ipet_bnb_nodes;
    if (r.ok && r.wcet_ipet_cycles > 0) {
      ++report.ipet_records;
      if (r.wcet_ipet_certified) ++report.ipet_certified;
      if (r.wcet_ipet_capped_edges > 0) ++report.ipet_capped_edge_records;
      // Tightness vs structural is only meaningful when both engines ran
      // (engine Both leaves the structural bound in wcet_cycles).
      if (options.wcet_engine == wcet::WcetEngine::Both &&
          r.wcet_cycles > 0) {
        if (r.wcet_ipet_cycles < r.wcet_cycles) ++report.ipet_tighter;
        report.ipet_tightening_sum += (static_cast<double>(r.wcet_cycles) -
                                       static_cast<double>(r.wcet_ipet_cycles)) /
                                      static_cast<double>(r.wcet_cycles);
      }
    }
    if (options.monitor != machine::MonitorMode::Off) {
      if (r.monitored_steps > 0) ++report.monitored_records;
      report.monitored_steps += r.monitored_steps;
      report.monitor_violations += r.monitor_violations;
    }
    if (report.cache_enabled) {
      if (r.cache_hit)
        ++report.cache_full_hits;
      else if (r.cache_image_hit)
        ++report.cache_image_hits;
      else
        ++report.cache_misses;
    }
  }
  if (options.store != nullptr) report.store_stats = options.store->stats();
  return report;
}

}  // namespace vc::driver
