// Machine-readable campaign reports (--report-json): the full FleetReport —
// every record plus the aggregate header — as one JSON document, so
// BENCH_*.json trajectories come from the tool instead of scraped stdout.
#include <fstream>

#include "driver/fleet.hpp"

namespace vc::driver {

namespace {

json::Value pass_stats_json(const pass::PipelineStats& stats) {
  json::Array passes;
  passes.reserve(stats.passes.size());
  for (const pass::PassStat& p : stats.passes) {
    json::Value v;
    v["name"] = json::Value(p.name);
    v["seconds"] = json::Value(p.seconds);
    v["runs"] = json::Value(p.runs);
    v["applied"] = json::Value(p.applied);
    v["rewrites"] = json::Value(static_cast<std::int64_t>(p.rewrites));
    v["ir_delta"] = json::Value(static_cast<std::int64_t>(p.ir_delta));
    v["checks"] = json::Value(p.checks);
    passes.push_back(std::move(v));
  }
  return json::Value(std::move(passes));
}

json::Value record_json(const FleetRecord& r) {
  // Semantic core first, then the provenance/timing overlay — the overlay
  // is exactly what the determinism diffs strip.
  json::Value v = record_core_json(r);
  v["cache_hit"] = json::Value(r.cache_hit);
  v["cache_image_hit"] = json::Value(r.cache_image_hit);
  v["compile_seconds"] = json::Value(r.compile_seconds);
  v["exec_seconds"] = json::Value(r.exec_seconds);
  v["wcet_seconds"] = json::Value(r.wcet_seconds);
  v["cache_lookup_seconds"] = json::Value(r.cache_lookup_seconds);
  v["cache_publish_seconds"] = json::Value(r.cache_publish_seconds);
  return v;
}

}  // namespace

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

json::Value record_core_json(const FleetRecord& r) {
  json::Value v;
  v["name"] = json::Value(r.name);
  v["config"] = json::Value(to_string(r.config));
  v["ok"] = json::Value(r.ok);
  if (!r.ok) v["error"] = json::Value(r.error);
  v["code_bytes"] = json::Value(r.code_bytes);
  v["exec"] = exec_stats_json(r.exec);
  v["observed_max_cycles"] = json::Value(r.observed_max_cycles);
  v["wcet_cycles"] = json::Value(r.wcet_cycles);
  v["wcet_nocache_cycles"] = json::Value(r.wcet_nocache_cycles);
  v["wcet_ipet_cycles"] = json::Value(r.wcet_ipet_cycles);
  v["wcet_ipet_capped_edges"] =
      json::Value(static_cast<std::int64_t>(r.wcet_ipet_capped_edges));
  v["wcet_ipet_certified"] = json::Value(r.wcet_ipet_certified);
  v["monitored_steps"] = json::Value(r.monitored_steps);
  v["monitor_violations"] = json::Value(r.monitor_violations);
  return v;
}

json::Value to_json(const FleetReport& report) {
  json::Value doc;
  // v2: "pass_timings" (fixed six-field RTL object) became "pass_stats", an
  // ordered per-pass array with wall time, run/applied/rewrite counts,
  // IR-size delta, and validator check counts for every pipeline step.
  // v3: per-record IPET fields (wcet_ipet_cycles / _capped_edges /
  // _certified) and the header's "wcet" engine/aggregate stanza.
  // v4: per-record execution-monitor fields (monitored_steps /
  // monitor_violations) and the header's "monitor" mode/aggregate stanza.
  // v5: the header's "service" stanza (vccd daemon campaigns: shard count,
  // request/queue counters, incremental-recompilation hits).
  // v6: the header's "target" field (the campaign's target ISA).
  // v7: the header's "ssa" field (SSA mid-end enabled for the campaign) and
  // the SSA bracket steps appearing in "pass_stats". The "wcet" stanza's
  // IPET solver sums (pivots, b&b nodes, rational re-solves) were added to
  // v7 later; they are additive keys, so the schema name stayed.
  // v8: the "wcet" stanza's rational re-solve count is gone (one ILP kernel).
  doc["schema"] = json::Value("vcflight-fleet-report-v8");
  doc["compiler_version"] = json::Value(kCompilerVersion);
  doc["target"] = json::Value(report.spec.target);
  doc["ssa"] = json::Value(report.spec.ssa);
  doc["units"] = json::Value(static_cast<std::uint64_t>(report.units));
  doc["configs"] = json::Value(static_cast<std::uint64_t>(report.configs));
  doc["jobs"] = json::Value(static_cast<std::int64_t>(report.jobs));
  doc["wall_seconds"] = json::Value(report.wall_seconds);
  doc["nodes_per_second"] = json::Value(report.nodes_per_second());
  doc["compile_seconds"] = json::Value(report.compile_seconds);
  doc["exec_seconds"] = json::Value(report.exec_seconds);
  doc["wcet_seconds"] = json::Value(report.wcet_seconds);
  doc["pass_stats"] = pass_stats_json(report.pass_stats);

  json::Value wcet_doc;
  wcet_doc["engine"] = json::Value(wcet::to_string(report.spec.wcet_engine));
  wcet_doc["ipet_records"] = json::Value(report.ipet_records);
  wcet_doc["ipet_certified"] = json::Value(report.ipet_certified);
  wcet_doc["ipet_tighter"] = json::Value(report.ipet_tighter);
  wcet_doc["ipet_capped_edge_records"] =
      json::Value(report.ipet_capped_edge_records);
  wcet_doc["ipet_tightening_sum"] = json::Value(report.ipet_tightening_sum);
  wcet_doc["ipet_pivots"] = json::Value(report.ipet_pivots);
  wcet_doc["ipet_bnb_nodes"] = json::Value(report.ipet_bnb_nodes);
  doc["wcet"] = std::move(wcet_doc);

  json::Value monitor;
  monitor["mode"] = json::Value(machine::to_string(report.spec.monitor));
  monitor["records"] = json::Value(report.monitored_records);
  monitor["steps"] = json::Value(report.monitored_steps);
  monitor["violations"] = json::Value(report.monitor_violations);
  doc["monitor"] = std::move(monitor);

  json::Value cache;
  cache["enabled"] = json::Value(report.cache_enabled);
  if (report.cache_enabled) {
    cache["full_hits"] = json::Value(report.cache_full_hits);
    cache["image_hits"] = json::Value(report.cache_image_hits);
    cache["misses"] = json::Value(report.cache_misses);
    cache["lookup_seconds"] = json::Value(report.cache_lookup_seconds);
    cache["publish_seconds"] = json::Value(report.cache_publish_seconds);
    json::Value store;
    store["lookups"] = json::Value(report.store_stats.lookups);
    store["hits"] = json::Value(report.store_stats.hits);
    store["misses"] = json::Value(report.store_stats.misses);
    store["publishes"] = json::Value(report.store_stats.publishes);
    store["publish_races"] = json::Value(report.store_stats.publish_races);
    store["stats_updates"] = json::Value(report.store_stats.stats_updates);
    store["corrupt_dropped"] = json::Value(report.store_stats.corrupt_dropped);
    store["evictions"] = json::Value(report.store_stats.evictions);
    store["resident_entries"] =
        json::Value(report.store_stats.resident_entries);
    store["resident_bytes"] = json::Value(report.store_stats.resident_bytes);
    cache["store"] = std::move(store);
  }
  doc["cache"] = std::move(cache);

  json::Value service;
  service["enabled"] = json::Value(report.service.enabled);
  if (report.service.enabled) {
    service["shards"] =
        json::Value(static_cast<std::int64_t>(report.service.shards));
    service["requests"] = json::Value(report.service.requests);
    service["incremental_hits"] = json::Value(report.service.incremental_hits);
    service["queue_peak"] = json::Value(report.service.queue_peak);
    service["shard_restarts"] = json::Value(report.service.shard_restarts);
  }
  doc["service"] = std::move(service);

  json::Array records;
  records.reserve(report.records.size());
  for (const FleetRecord& r : report.records) records.push_back(record_json(r));
  doc["records"] = json::Value(std::move(records));
  return doc;
}

bool write_report_json(const FleetReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << to_json(report).dump(1) << "\n";
  return out.good();
}

}  // namespace vc::driver
