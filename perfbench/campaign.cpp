// The two in-process campaign workloads: serial, cold (no artifact store)
// fleet jobs over a fixed generated node suite, all four configurations.
//
//   campaign_validated — ppc, --validate=full, --wcet-engine=both,
//     --monitor=full, a short exec stream: the IPET simplex, the checkers
//     and cache analysis carry the load.
//   campaign_rv32_ssa  — rv32 with --ssa, validation off, structural
//     engine, monitor off, a long exec stream: the SSA mid-end, rv32
//     lowering and the simulator carry the load; ilp and validate idle.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "perfbench.hpp"

namespace perfbench {

using namespace vc;

namespace {

/// The node suite of EXPERIMENTS.md; fixed so both sides of a comparison
/// time the same nodes (per-job time is long-tailed over the node mix).
constexpr std::uint64_t kSuiteSeed = 20110318;

struct Campaign {
  JobSpec spec;
  int nodes = 0;
};

Campaign campaign_of(const std::string& workload) {
  Campaign c;
  if (workload == "campaign_validated") {
    c.spec.target = "ppc";
    c.spec.validate = driver::ValidateLevel::Full;
    c.spec.engine = wcet::WcetEngine::Both;
    c.spec.monitor = machine::MonitorMode::Full;
    c.spec.exec_cycles = 8;
    c.nodes = 10;
  } else {
    c.spec.target = "rv32";
    c.spec.ssa = true;
    c.spec.exec_cycles = 200;
    c.nodes = 10;
  }
  return c;
}

}  // namespace

Outcome run_campaign(const RunArgs& args) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const Campaign campaign = campaign_of(args.workload);
  const JobSpec& spec = campaign.spec;
  const std::uint64_t suite_seed = args.suite_seed.value_or(kSuiteSeed);
  Outcome outcome;

  std::vector<double> setup_ms, generate_ms, parse_ms, ghz_samples;
  const auto timed_suite = [&] {
    const double ghz = clock_ghz();
    Suite s = build_suite(suite_seed, campaign.nodes);
    generate_ms.push_back(s.generate_ms);
    parse_ms.push_back(s.parse_ms);
    setup_ms.push_back(at_reference_clock(s.generate_ms + s.parse_ms, ghz));
    return s;
  };
  const Suite suite = timed_suite();
  const std::vector<Job> jobs = make_jobs(suite, args.seed);

  std::optional<Tracer> tracer;
  std::optional<LayerBook> book;
  if (args.trace) {
    tracer.emplace();
    book.emplace(jobs, spec);
  }

  // Per-job minimum at the reference clock, and in plain wall time.
  std::vector<double> best(jobs.size(), std::numeric_limits<double>::infinity());
  std::vector<double> wall_best = best;
  std::vector<driver::FleetRecord> records;
  std::string digest0;
  int rounds = 0;
  for (;; ++rounds) {
    const auto t_round = Clock::now();
    if (rounds > 0) timed_suite();
    std::string digest;
    double round_ms = 0.0;
    if (rounds == 0 || !args.trace) {
      std::vector<std::string> dumps;
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const double ghz = clock_ghz();
        ghz_samples.push_back(ghz);
        const auto t0 = Clock::now();
        driver::FleetRecord r = run_fleet_job(jobs[j], spec);
        const double ms = ms_between(t0, Clock::now());
        round_ms += ms;
        best[j] = std::min(best[j], at_reference_clock(ms, ghz));
        wall_best[j] = std::min(wall_best[j], ms);
        check_record(r, spec, &outcome);
        dumps.push_back(driver::record_core_json(r).dump());
        if (rounds == 0) records.push_back(std::move(r));
      }
      digest = records_digest(dumps);
    } else {
      digest = book->round(&*tracer, &outcome);
    }
    if (rounds == 0) {
      digest0 = digest;
      // The decomposed job must reproduce run_fleet's record, and every
      // simulated call must match the reference interpreter.
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::string mismatch;
        const Decomposed d =
            run_decomposed(jobs[j], spec, nullptr, static_cast<int>(j), &mismatch);
        outcome.check(driver::record_core_json(d.record).dump() ==
                          driver::record_core_json(records[j]).dump(),
                      jobs[j].name + ": decomposed record differs from run_fleet's");
        outcome.check(mismatch.empty(), "interpreter mismatch: " + mismatch);
      }
    }
    outcome.check(digest == digest0,
                  "round " + std::to_string(rounds) + " record digest differs");
    std::printf("round %d: %zu records in %.1f ms, digest %s\n", rounds,
                jobs.size(), round_ms, digest.c_str());
    // Stop once less than half a round of the budget remains. A traced
    // round costs about three untraced ones, so one traced round suffices.
    const auto now = Clock::now();
    if (rounds >= (args.trace ? 1 : 2) && now + (now - t_round) / 2 >= deadline)
      break;
  }
  ++rounds;

  double total_ms = 0.0, wall_ms = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    total_ms += best[j];
    wall_ms += wall_best[j];
  }
  Metrics& e2e = outcome.end_to_end;
  e2e["jobs_per_s"] = static_cast<double>(jobs.size()) / (total_ms / 1e3);
  e2e["job_ms_p50"] = quantile(best, 0.50);
  e2e["job_ms_p75"] = quantile(best, 0.75);
  e2e["setup_s"] = *std::min_element(setup_ms.begin(), setup_ms.end()) / 1e3;
  e2e["peak_rss_mb"] = peak_rss_mb();
  const Ratios ratios = o0_ratios(records);
  e2e["wcet_ratio_to_o0"] = ratios.wcet;
  e2e["code_ratio_to_o0"] = ratios.code;
  e2e["cycles_ratio_to_o0"] = ratios.cycles;

  Metrics& layer = outcome.per_layer;
  if (book) book->emit(&layer);
  layer["dataflow.generate_ms"] =
      *std::min_element(generate_ms.begin(), generate_ms.end());
  layer["minic.parse_ms"] = *std::min_element(parse_ms.begin(), parse_ms.end());
  layer["host.clock_ghz"] = median(ghz_samples);
  layer["host.wall_jobs_per_s"] = static_cast<double>(jobs.size()) / (wall_ms / 1e3);

  std::printf("campaign %s: %zu nodes x 4 configs, %d rounds, target %s; "
              "wall %.2f jobs/s at a median clock of %.2f GHz\n",
              args.workload.c_str(), suite.programs.size(), rounds,
              spec.target.c_str(), layer["host.wall_jobs_per_s"],
              layer["host.clock_ghz"]);
  if (tracer) {
    const std::string path = args.work_dir + "/trace-" + args.workload + ".json";
    outcome.check(tracer->write_chrome_json(path), "cannot write " + path);
    std::printf("trace: %zu spans written to %s\n", tracer->size(), path.c_str());
  }
  return outcome;
}

}  // namespace perfbench
