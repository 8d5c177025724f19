#include "tools/vcc_cli.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "artifact/image_io.hpp"
#include "artifact/store.hpp"
#include "minic/parser.hpp"
#include "minic/typecheck.hpp"
#include "support/threadpool.hpp"
#include "validate/validate.hpp"

namespace vc::tools {

namespace {

/// Splits on ',' keeping empty items ("1,,2" -> {"1", "", "2"}); an empty
/// spec yields no items.
std::vector<std::string> split_commas(const std::string& spec) {
  std::vector<std::string> items;
  if (spec.empty()) return items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      items.push_back(spec.substr(start));
      return items;
    }
    items.push_back(spec.substr(start, comma - start));
    start = comma + 1;
  }
}

bool parse_f64(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool parse_i32(const std::string& text, std::int32_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max())
    return false;
  *out = static_cast<std::int32_t>(v);
  return true;
}

/// Human name for what a path turned out to be, for "not a directory"
/// diagnostics.
const char* file_type_name(std::filesystem::file_type t) {
  switch (t) {
    case std::filesystem::file_type::regular: return "regular file";
    case std::filesystem::file_type::symlink: return "symlink";
    case std::filesystem::file_type::block: return "block device";
    case std::filesystem::file_type::character: return "character device";
    case std::filesystem::file_type::fifo: return "fifo";
    case std::filesystem::file_type::socket: return "socket";
    default: return "non-directory";
  }
}

}  // namespace

CallArgs parse_call_args(const minic::Function& fn, const std::string& spec) {
  CallArgs out;
  const std::vector<std::string> items = split_commas(spec);
  if (items.size() != fn.params.size()) {
    out.error = "function '" + fn.name + "' expects " +
                std::to_string(fn.params.size()) + " argument(s), got " +
                std::to_string(items.size());
    return out;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const minic::Param& p = fn.params[i];
    if (p.type == minic::Type::F64) {
      double v = 0.0;
      if (!parse_f64(items[i], &v)) {
        out.error = "invalid f64 literal '" + items[i] + "' for parameter '" +
                    p.name + "' of '" + fn.name + "'";
        return out;
      }
      out.values.push_back(minic::Value::of_f64(v));
    } else {
      std::int32_t v = 0;
      if (!parse_i32(items[i], &v)) {
        out.error = "invalid i32 literal '" + items[i] + "' for parameter '" +
                    p.name + "' of '" + fn.name + "'";
        return out;
      }
      out.values.push_back(minic::Value::of_i32(v));
    }
  }
  return out;
}

BatchResult run_batch(const std::string& dir, const BatchOptions& options) {
  namespace fs = std::filesystem;
  BatchResult result;
  // Path-class problems are usage errors (exit 2), and the diagnostic names
  // the path plus the precise reason: "exists but is a regular file" is a
  // different operator mistake than "does not exist".
  std::error_code ec;
  const fs::file_status st = fs::status(dir, ec);
  if (ec || st.type() == fs::file_type::not_found) {
    result.exit_code = 2;
    result.summary = "not a directory: " + dir + " (" +
                     (ec ? ec.message() : "no such file or directory") + ")";
    return result;
  }
  if (st.type() != fs::file_type::directory) {
    result.exit_code = 2;
    result.summary = "not a directory: " + dir + " (exists but is a " +
                     file_type_name(st.type()) + ")";
    return result;
  }
  if (options.jobs < 0) {
    result.exit_code = 2;
    result.summary = "--jobs must be >= 0, got " +
                     std::to_string(options.jobs);
    return result;
  }
  // Batch mode is compile-only: a run knob set here would silently not run.
  if (driver::spec_json(options, driver::kSaltParams).dump() !=
      driver::spec_json(driver::JobSpec{}, driver::kSaltParams).dump()) {
    result.exit_code = 2;
    result.summary = "batch mode is compile-only: the execution, WCET and "
                     "monitor knobs do not apply";
    return result;
  }
  std::vector<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec))
    if (entry.is_regular_file() && entry.path().extension() == ".mc")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    result.summary = "no .mc files under " + dir;
    return result;
  }
  result.total = files.size();

  // Validated runs re-check every compile by design; caching would skip the
  // very work the flag requests.
  std::unique_ptr<artifact::ArtifactStore> store;
  if (!options.cache_dir.empty() &&
      options.validate == driver::ValidateLevel::Off)
    store = std::make_unique<artifact::ArtifactStore>(
        artifact::ArtifactStore::Options{options.cache_dir,
                                         options.cache_budget_bytes});

  struct FileResult {
    bool ok = false;
    bool cached = false;
    bool io_error = false;
    std::string line;
  };
  std::vector<FileResult> results(files.size());

  const auto t_start = std::chrono::steady_clock::now();
  parallel_for(
      files.size(),
      options.jobs > 0 ? static_cast<std::size_t>(options.jobs)
                       : ThreadPool::default_worker_count(),
      [&](std::size_t i) {
        FileResult& r = results[i];
        char buf[512];
        try {
          std::ifstream in(files[i]);
          if (!in) {
            // An unreadable file is an environment problem, not a compile
            // failure: name the file and the errno reason, and classify it
            // so the batch exits 2 rather than 1.
            std::snprintf(buf, sizeof buf, "%s: error: cannot open file (%s)",
                          files[i].c_str(), std::strerror(errno));
            r.io_error = true;
            r.line = buf;
            return;
          }
          std::stringstream buffer;
          buffer << in.rdbuf();
          const std::string source = buffer.str();

          // Whole-file compiles have no entry function; "" keys the image.
          Hash128 key;
          if (store != nullptr) {
            key = driver::artifact_key(options, source, "");
            if (const auto loaded = store->lookup(key)) {
              std::snprintf(buf, sizeof buf,
                            "%s: ok — %llu function(s), %llu bytes (cached)",
                            files[i].c_str(),
                            static_cast<unsigned long long>(
                                loaded->stats.at("functions").as_u64()),
                            static_cast<unsigned long long>(
                                loaded->stats.at("code_bytes").as_u64()));
              r.ok = true;
              r.cached = true;
              r.line = buf;
              return;
            }
          }

          minic::Program program = minic::parse_program(source, files[i]);
          minic::type_check(program);
          driver::CompileOptions copts;
          static_cast<driver::PipelineSpec&>(copts) = options;
          const driver::Compiled compiled =
              options.validate != driver::ValidateLevel::Off
                  ? validate::validated_compile(program, options.config,
                                                /*n_tests=*/12, /*seed=*/1,
                                                options.validate, copts)
                  : driver::compile_program(program, options.config, copts);
          if (store != nullptr) {
            json::Value doc;
            doc["functions"] = json::Value(
                static_cast<std::uint64_t>(program.functions.size()));
            doc["code_bytes"] =
                json::Value(compiled.image.code_size_bytes());
            doc["results"] = json::Value(json::Array{});
            json::Value info;
            info["file"] = json::Value(files[i]);
            info["spec"] = driver::spec_json(options, driver::kSaltArtifact);
            info["compiler_version"] = json::Value(driver::kCompilerVersion);
            store->publish(key, artifact::serialize_image(compiled.image),
                           artifact::annotation_text(compiled.image), doc,
                           std::move(info));
          }
          std::snprintf(buf, sizeof buf, "%s: ok — %zu function(s), %u bytes",
                        files[i].c_str(), program.functions.size(),
                        compiled.image.code_size_bytes());
          r.ok = true;
        } catch (const std::exception& e) {
          std::snprintf(buf, sizeof buf, "%s: error: %s", files[i].c_str(),
                        e.what());
        }
        r.line = buf;
      });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();

  for (std::size_t i = 0; i < results.size(); ++i) {
    result.lines.push_back(results[i].line);
    if (results[i].ok) {
      ++result.compiled;
      if (results[i].cached) ++result.cache_hits;
    } else {
      result.failures.push_back(files[i]);
      if (results[i].io_error) ++result.io_errors;
    }
  }

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "batch: %zu/%zu file(s) ok, %zu failed under %s in %.2fs "
                "(%.1f files/s)",
                result.compiled, result.total, result.failures.size(),
                driver::to_string(options.config).c_str(), wall,
                wall > 0.0 ? static_cast<double>(result.total) / wall : 0.0);
  result.summary = buf;
  if (store != nullptr) result.summary += "\n" + store->stats().summary();
  result.exit_code =
      result.io_errors > 0 ? 2 : (result.failures.empty() ? 0 : 1);
  return result;
}

std::string format_profile(const std::vector<ProfilePhase>& phases,
                           const pass::PipelineStats& passes) {
  std::string out = "== profile ==\n";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-12s %12s %12s %14s\n", "phase",
                "seconds", "allocs", "bytes");
  out += buf;
  double total_s = 0.0;
  std::uint64_t total_a = 0;
  std::uint64_t total_b = 0;
  for (const ProfilePhase& p : phases) {
    std::snprintf(buf, sizeof buf, "%-12s %12.6f %12llu %14llu\n",
                  p.name.c_str(), p.seconds,
                  static_cast<unsigned long long>(p.allocations),
                  static_cast<unsigned long long>(p.alloc_bytes));
    out += buf;
    total_s += p.seconds;
    total_a += p.allocations;
    total_b += p.alloc_bytes;
  }
  std::snprintf(buf, sizeof buf, "%-12s %12.6f %12llu %14llu\n", "(total)",
                total_s, static_cast<unsigned long long>(total_a),
                static_cast<unsigned long long>(total_b));
  out += buf;
  if (passes.passes.empty()) return out;
  std::snprintf(buf, sizeof buf, "%-12s %12s %8s %8s %10s %8s\n", "pass",
                "seconds", "runs", "applied", "rewrites", "checks");
  out += buf;
  for (const pass::PassStat& s : passes.passes) {
    std::snprintf(buf, sizeof buf,
                  "%-12s %12.6f %8llu %8llu %10lld %8llu\n", s.name.c_str(),
                  s.seconds, static_cast<unsigned long long>(s.runs),
                  static_cast<unsigned long long>(s.applied),
                  static_cast<long long>(s.rewrites),
                  static_cast<unsigned long long>(s.checks));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%-12s %12.6f\n", "(passes)",
                passes.total_seconds());
  out += buf;
  return out;
}

}  // namespace vc::tools
