// The vcc strict argument-parsing rules (malformed literals, wrong arity,
// and flag values are diagnosed instead of silently truncated/zero-filled)
// and the --batch exit-code/summary policy: a batch with any failing file
// must exit non-zero and name every failure explicitly. The --wcet cases
// and the mode rules (every flag honoured or rejected in single-file,
// --batch and --connect mode) run the built vcc binary; the --connect
// cases run it against a spawned vccd.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>

#include "mach/target.hpp"
#include "service/client.hpp"
#include "tools/vcc_cli.hpp"

namespace vc::tools {
namespace {

using driver::check_pass_names;

minic::Function two_param_fn() {
  minic::Function fn;
  fn.name = "f";
  fn.params = {{"x", minic::Type::F64}, {"n", minic::Type::I32}};
  return fn;
}

TEST(VccCliTest, ParsesWellFormedArguments) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5,-3");
  ASSERT_TRUE(args.ok()) << args.error;
  ASSERT_EQ(args.values.size(), 2u);
  EXPECT_EQ(args.values[0].type, minic::Type::F64);
  EXPECT_DOUBLE_EQ(args.values[0].f, 4.5);
  EXPECT_EQ(args.values[1].type, minic::Type::I32);
  EXPECT_EQ(args.values[1].i, -3);
}

TEST(VccCliTest, AcceptsScientificAndNegativeF64) {
  minic::Function fn;
  fn.name = "g";
  fn.params = {{"x", minic::Type::F64}};
  const CallArgs args = parse_call_args(fn, "-1.25e3");
  ASSERT_TRUE(args.ok()) << args.error;
  EXPECT_DOUBLE_EQ(args.values[0].f, -1250.0);
}

TEST(VccCliTest, RejectsMalformedF64) {
  const CallArgs args = parse_call_args(two_param_fn(), "abc,3");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("invalid f64 literal 'abc'"), std::string::npos);
  EXPECT_NE(args.error.find("'x'"), std::string::npos);
}

TEST(VccCliTest, RejectsTrailingGarbage) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5x,3");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("invalid f64"), std::string::npos);
}

TEST(VccCliTest, RejectsFractionalI32) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5,3.7");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("invalid i32 literal '3.7'"), std::string::npos);
}

TEST(VccCliTest, RejectsOutOfRangeI32) {
  const CallArgs args = parse_call_args(two_param_fn(), "1.0,99999999999");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("invalid i32"), std::string::npos);
}

TEST(VccCliTest, RejectsMissingArguments) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("expects 2 argument(s), got 1"),
            std::string::npos);
}

TEST(VccCliTest, RejectsNoArgumentsWhenParamsExpected) {
  const CallArgs args = parse_call_args(two_param_fn(), "");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("expects 2 argument(s), got 0"),
            std::string::npos);
}

TEST(VccCliTest, RejectsExtraArguments) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5,3,9");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("expects 2 argument(s), got 3"),
            std::string::npos);
}

TEST(VccCliTest, RejectsEmptyItem) {
  const CallArgs args = parse_call_args(two_param_fn(), "4.5,");
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.error.find("invalid i32 literal ''"), std::string::npos);
}

TEST(VccCliTest, EmptySpecMatchesNullaryFunction) {
  minic::Function fn;
  fn.name = "h";
  const CallArgs args = parse_call_args(fn, "");
  EXPECT_TRUE(args.ok()) << args.error;
  EXPECT_TRUE(args.values.empty());
}

/// One vcc flag applied through the knob table (driver/run_spec.hpp), as
/// vcc parses it; nullopt when the flag is rejected.
std::optional<driver::JobSpec> parse_knob(const std::string& arg) {
  driver::JobSpec spec;
  const auto error = driver::parse_spec_flag(arg, driver::kCliVcc, &spec);
  if (!error.has_value() || !error->empty()) return std::nullopt;
  return spec;
}

std::optional<driver::Config> parse_config_name(const std::string& name) {
  const auto spec = parse_knob("--config=" + name);
  return spec ? std::optional(spec->config) : std::nullopt;
}

std::optional<std::string> parse_target_name(const std::string& name) {
  const auto spec = parse_knob("--target=" + name);
  return spec ? std::optional(spec->target) : std::nullopt;
}

std::optional<wcet::WcetEngine> parse_wcet_engine_name(
    const std::string& name) {
  const auto spec = parse_knob("--wcet-engine=" + name);
  return spec ? std::optional(spec->wcet_engine) : std::nullopt;
}

TEST(VccCliTest, ParseConfigName) {
  EXPECT_EQ(parse_config_name("O0"), driver::Config::O0Pattern);
  EXPECT_EQ(parse_config_name("O1"), driver::Config::O1NoRegalloc);
  EXPECT_EQ(parse_config_name("verified"), driver::Config::Verified);
  EXPECT_EQ(parse_config_name("O2"), driver::Config::O2Full);
  EXPECT_FALSE(parse_config_name("O3").has_value());
  EXPECT_FALSE(parse_config_name("").has_value());
}

TEST(VccCliTest, ParseTargetName) {
  // Round-trip every registered target through the strict parser.
  for (const std::string& name : mach::target_names())
    EXPECT_EQ(parse_target_name(name), name);
  EXPECT_EQ(parse_target_name("ppc"), "ppc");
  EXPECT_EQ(parse_target_name("rv32"), "rv32");
  // Unknown, empty, and case-mangled spellings are rejected (the callers
  // turn nullopt into a diagnostic + exit 2).
  EXPECT_FALSE(parse_target_name("riscv").has_value());
  EXPECT_FALSE(parse_target_name("PPC").has_value());
  EXPECT_FALSE(parse_target_name("rv32 ").has_value());
  EXPECT_FALSE(parse_target_name("").has_value());
}

TEST(VccCliTest, TargetFlagConflictsAreContradictoryRepeats) {
  FlagConflicts conflicts;
  EXPECT_FALSE(conflicts.note("--target", "ppc").has_value());
  EXPECT_FALSE(conflicts.note("--target", "ppc").has_value());
  const auto conflict = conflicts.note("--target", "rv32");
  ASSERT_TRUE(conflict.has_value());
  EXPECT_NE(conflict->find("--target"), std::string::npos) << *conflict;
  EXPECT_NE(conflict->find("'ppc'"), std::string::npos) << *conflict;
  EXPECT_NE(conflict->find("'rv32'"), std::string::npos) << *conflict;
}

TEST(VccCliTest, ParseWcetEngineName) {
  EXPECT_EQ(parse_wcet_engine_name("structural"), wcet::WcetEngine::Structural);
  EXPECT_EQ(parse_wcet_engine_name("ipet"), wcet::WcetEngine::Ipet);
  EXPECT_EQ(parse_wcet_engine_name("both"), wcet::WcetEngine::Both);
  // Round-trip through the one name table.
  for (const char* name : wcet::kWcetEngineNames)
    EXPECT_EQ(wcet::to_string(*parse_wcet_engine_name(name)), name);
  EXPECT_FALSE(parse_wcet_engine_name("exact").has_value());
  EXPECT_FALSE(parse_wcet_engine_name("Structural").has_value());
  EXPECT_FALSE(parse_wcet_engine_name("").has_value());
}

TEST(VccCliTest, SplitFlagRecognizesFlagShapes) {
  const auto f = split_flag("--jobs=4");
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->name, "--jobs");
  EXPECT_EQ(f->value, "4");

  const auto bare = split_flag("--emit-asm");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->name, "--emit-asm");
  EXPECT_EQ(bare->value, "");

  // Bare --validate means --validate=rtl; the conflict guard must see them
  // as the same value.
  const auto v = split_flag("--validate");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->value, "rtl");

  // Non-flag words (file paths, "--") are not flags.
  EXPECT_FALSE(split_flag("file.mc").has_value());
  EXPECT_FALSE(split_flag("--").has_value());
  EXPECT_FALSE(split_flag("-j4").has_value());
}

TEST(VccCliTest, FlagConflictsDiagnoseContradictoryRepeats) {
  FlagConflicts conflicts;
  EXPECT_FALSE(conflicts.note("--jobs", "4").has_value());
  // Agreeing repeat: tolerated.
  EXPECT_FALSE(conflicts.note("--jobs", "4").has_value());
  // Contradictory repeat: diagnosed, naming both values.
  const auto conflict = conflicts.note("--jobs", "8");
  ASSERT_TRUE(conflict.has_value());
  EXPECT_NE(conflict->find("--jobs"), std::string::npos) << *conflict;
  EXPECT_NE(conflict->find("'4'"), std::string::npos) << *conflict;
  EXPECT_NE(conflict->find("'8'"), std::string::npos) << *conflict;
  // Distinct flags never interact.
  EXPECT_FALSE(conflicts.note("--nodes", "8").has_value());

  // The bare/= spellings of --validate agree through split_flag.
  FlagConflicts validate;
  EXPECT_FALSE(
      validate.note(split_flag("--validate")->name,
                    split_flag("--validate")->value).has_value());
  EXPECT_FALSE(
      validate.note(split_flag("--validate=rtl")->name,
                    split_flag("--validate=rtl")->value).has_value());
  EXPECT_TRUE(
      validate.note(split_flag("--validate=full")->name,
                    split_flag("--validate=full")->value).has_value());
}

// -------------------------------------------------------------- --profile

TEST(VccProfileTest, FormatsPhaseTableWithTotals) {
  std::vector<ProfilePhase> phases;
  phases.push_back({"compile", 0.25, 1000, 64000});
  phases.push_back({"wcet", 0.5, 200, 8192});
  const pass::PipelineStats no_passes;
  const std::string out = format_profile(phases, no_passes);
  EXPECT_NE(out.find("== profile =="), std::string::npos) << out;
  EXPECT_NE(out.find("compile"), std::string::npos);
  EXPECT_NE(out.find("wcet"), std::string::npos);
  EXPECT_NE(out.find("0.250000"), std::string::npos) << out;
  EXPECT_NE(out.find("64000"), std::string::npos) << out;
  // The (total) row sums the phases: 0.75s, 1200 allocations, 72192 bytes.
  EXPECT_NE(out.find("(total)"), std::string::npos);
  EXPECT_NE(out.find("0.750000"), std::string::npos) << out;
  EXPECT_NE(out.find("1200"), std::string::npos) << out;
  EXPECT_NE(out.find("72192"), std::string::npos) << out;
  // No pass telemetry -> no pass table (a cache-served compile runs none).
  EXPECT_EQ(out.find("(passes)"), std::string::npos) << out;
}

TEST(VccProfileTest, AppendsPassTableWhenTelemetryPresent) {
  std::vector<ProfilePhase> phases;
  phases.push_back({"compile", 0.1, 10, 100});
  pass::PipelineStats stats;
  pass::PassStat cse;
  cse.name = "cse";
  cse.seconds = 0.025;
  cse.runs = 3;
  cse.applied = 2;
  cse.rewrites = 17;
  cse.checks = 5;
  stats.passes.push_back(cse);
  const std::string out = format_profile(phases, stats);
  EXPECT_NE(out.find("cse"), std::string::npos) << out;
  EXPECT_NE(out.find("0.025000"), std::string::npos) << out;
  EXPECT_NE(out.find("17"), std::string::npos) << out;
  EXPECT_NE(out.find("(passes)"), std::string::npos) << out;
}

TEST(VccProfileTest, SplitFlagKeepsProfileBare) {
  // `--profile` is a bare boolean: the valued spelling is a distinct name
  // ("--profile=x" splits to name "--profile", value "x") which the vcc
  // flag loop rejects with exit 2 (covered by the vcc_profile_cli ctest).
  const auto bare = split_flag("--profile");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->name, "--profile");
  EXPECT_TRUE(bare->value.empty());
  const auto valued = split_flag("--profile=x");
  ASSERT_TRUE(valued.has_value());
  EXPECT_EQ(valued->name, "--profile");
  EXPECT_EQ(valued->value, "x");
}

// ---------------------------------------------------------------- --batch

namespace fs = std::filesystem;

/// A scratch directory of .mc files, removed on destruction.
class BatchDir {
 public:
  explicit BatchDir(const std::string& tag)
      : dir_((fs::temp_directory_path() / ("vcc-batch-test-" + tag))
                 .string()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~BatchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void add(const std::string& name, const std::string& source) const {
    std::ofstream out(fs::path(dir_) / name);
    out << source;
  }

  [[nodiscard]] const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

const char kGoodSource[] =
    "func f64 lowpass(f64 x) { return 0.2 * x; }\n";
const char kBadSource[] =
    "func f64 broken(f64 x) { return undeclared_name; }\n";

TEST(VccBatchTest, AllFilesOkExitsZero) {
  const BatchDir dir("all-ok");
  dir.add("a.mc", kGoodSource);
  dir.add("b.mc", kGoodSource);
  const BatchResult result = run_batch(dir.path(), BatchOptions{});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.total, 2u);
  EXPECT_EQ(result.compiled, 2u);
  EXPECT_TRUE(result.failures.empty());
  ASSERT_EQ(result.lines.size(), 2u);
  for (const std::string& line : result.lines)
    EXPECT_NE(line.find(": ok"), std::string::npos) << line;
  EXPECT_NE(result.summary.find("2/2 file(s) ok, 0 failed"),
            std::string::npos)
      << result.summary;
}

TEST(VccBatchTest, AnyFailureExitsNonZeroAndIsNamed) {
  const BatchDir dir("one-bad");
  dir.add("a.mc", kGoodSource);
  dir.add("bad.mc", kBadSource);
  dir.add("c.mc", kGoodSource);
  const BatchResult result = run_batch(dir.path(), BatchOptions{});
  EXPECT_NE(result.exit_code, 0);
  EXPECT_EQ(result.total, 3u);
  EXPECT_EQ(result.compiled, 2u);
  // The failing file is named in the failure list AND its per-file line.
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_NE(result.failures[0].find("bad.mc"), std::string::npos);
  bool saw_error_line = false;
  for (const std::string& line : result.lines)
    if (line.find("bad.mc") != std::string::npos &&
        line.find("error") != std::string::npos)
      saw_error_line = true;
  EXPECT_TRUE(saw_error_line);
  EXPECT_NE(result.summary.find("2/3 file(s) ok, 1 failed"),
            std::string::npos)
      << result.summary;
}

TEST(VccBatchTest, FailureIsolatedPerFileAtAnyWorkerCount) {
  const BatchDir dir("parallel-bad");
  dir.add("bad.mc", kBadSource);
  for (int i = 0; i < 6; ++i)
    dir.add("ok" + std::to_string(i) + ".mc", kGoodSource);
  BatchOptions options;
  options.jobs = 4;
  const BatchResult result = run_batch(dir.path(), options);
  EXPECT_NE(result.exit_code, 0);
  EXPECT_EQ(result.compiled, 6u);
  EXPECT_EQ(result.failures.size(), 1u);
}

TEST(VccBatchTest, NegativeJobsIsDiagnosed) {
  const BatchDir dir("neg-jobs");
  dir.add("a.mc", kGoodSource);
  BatchOptions options;
  options.jobs = -3;
  const BatchResult result = run_batch(dir.path(), options);
  EXPECT_EQ(result.exit_code, 2);  // usage error, not a compile failure
  EXPECT_EQ(result.total, 0u);  // rejected before any file was touched
  EXPECT_NE(result.summary.find("--jobs must be >= 0"), std::string::npos)
      << result.summary;
  EXPECT_NE(result.summary.find("-3"), std::string::npos);
}

TEST(VccBatchTest, RunKnobsAreRejectedNotIgnored) {
  const BatchDir dir("runknob");
  dir.add("a.mc", kGoodSource);
  BatchOptions options;
  options.wcet = true;
  const BatchResult result = run_batch(dir.path(), options);
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.summary.find("compile-only"), std::string::npos)
      << result.summary;
  EXPECT_EQ(result.total, 0u);
}

TEST(VccBatchTest, MissingDirectoryIsDiagnosed) {
  const BatchResult result =
      run_batch("/nonexistent/vcc-batch-dir", BatchOptions{});
  EXPECT_EQ(result.exit_code, 2);
  // Diagnostic names the path and the reason.
  EXPECT_NE(result.summary.find("not a directory"), std::string::npos)
      << result.summary;
  EXPECT_NE(result.summary.find("/nonexistent/vcc-batch-dir"),
            std::string::npos)
      << result.summary;
}

TEST(VccBatchTest, PathThatIsARegularFileIsDiagnosedWithReason) {
  const BatchDir dir("not-a-dir");
  dir.add("plain.mc", kGoodSource);
  const std::string file = (fs::path(dir.path()) / "plain.mc").string();
  const BatchResult result = run_batch(file, BatchOptions{});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_EQ(result.total, 0u);
  EXPECT_NE(result.summary.find("not a directory"), std::string::npos)
      << result.summary;
  EXPECT_NE(result.summary.find(file), std::string::npos) << result.summary;
  EXPECT_NE(result.summary.find("regular file"), std::string::npos)
      << result.summary;
}

TEST(VccBatchTest, UnreadableFileIsNamedWithReasonAndExits2) {
  const BatchDir dir("unreadable");
  dir.add("good.mc", kGoodSource);
  dir.add("locked.mc", kGoodSource);
  const fs::path locked = fs::path(dir.path()) / "locked.mc";
  fs::permissions(locked, fs::perms::none);
  // Root ignores permission bits; only assert the diagnostic when the file
  // is actually unreadable in this environment.
  if (std::ifstream(locked).good()) {
    fs::permissions(locked, fs::perms::owner_all);
    GTEST_SKIP() << "cannot make a file unreadable here (running as root)";
  }
  const BatchResult result = run_batch(dir.path(), BatchOptions{});
  fs::permissions(locked, fs::perms::owner_all);
  EXPECT_EQ(result.exit_code, 2);  // environment error, not a compile error
  EXPECT_EQ(result.io_errors, 1u);
  EXPECT_EQ(result.compiled, 1u);
  bool saw = false;
  for (const std::string& line : result.lines)
    if (line.find("locked.mc") != std::string::npos &&
        line.find("cannot open file") != std::string::npos &&
        line.find("(") != std::string::npos)
      saw = true;  // path + strerror reason on one line
  EXPECT_TRUE(saw);
}

TEST(VccBatchTest, EmptyDirectoryIsDiagnosed) {
  const BatchDir dir("empty");
  const BatchResult result = run_batch(dir.path(), BatchOptions{});
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.summary.find("no .mc files"), std::string::npos);
}

TEST(VccBatchTest, SecondRunHitsTheCache) {
  const BatchDir dir("cache");
  // Distinct sources: identical files would share one artifact key (content
  // addressing) and the second file would hit within the cold run already.
  dir.add("a.mc", kGoodSource);
  dir.add("b.mc", "func f64 gain(f64 x) { return 1.5 * x; }\n");
  const std::string cache =
      (fs::temp_directory_path() / "vcc-batch-test-cache-store").string();
  fs::remove_all(cache);
  BatchOptions options;
  options.cache_dir = cache;

  const BatchResult cold = run_batch(dir.path(), options);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_EQ(cold.cache_hits, 0u);

  const BatchResult warm = run_batch(dir.path(), options);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_EQ(warm.cache_hits, 2u);
  for (const std::string& line : warm.lines)
    EXPECT_NE(line.find("(cached)"), std::string::npos) << line;
  // The cache footer rides along in the summary.
  EXPECT_NE(warm.summary.find("artifact store"), std::string::npos)
      << warm.summary;
  fs::remove_all(cache);
}

TEST(VccBatchTest, ValidateBypassesTheCache) {
  const BatchDir dir("validate");
  dir.add("a.mc", kGoodSource);
  const std::string cache =
      (fs::temp_directory_path() / "vcc-batch-test-validate-store").string();
  fs::remove_all(cache);
  BatchOptions options;
  options.cache_dir = cache;
  options.validate = driver::ValidateLevel::Rtl;
  const BatchResult first = run_batch(dir.path(), options);
  EXPECT_EQ(first.exit_code, 0);
  const BatchResult second = run_batch(dir.path(), options);
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(second.cache_hits, 0u);  // re-validation is the point of the run
  fs::remove_all(cache);
}

// ----------------------------------------------------- pass-name strictness

TEST(VccCliTest, CheckPassNamesAcceptsRegisteredSteps) {
  EXPECT_EQ(check_pass_names({}), std::nullopt);
  EXPECT_EQ(check_pass_names({"constprop", "cse", "dce"}), std::nullopt);
  // The SSA bracket steps are selectable like any other optimization step.
  EXPECT_EQ(check_pass_names({"ssa-build", "ssa-gvn", "ssa-licm",
                              "ssa-unroll", "ssa-rotate", "ssa-out"}),
            std::nullopt);
}

TEST(VccCliTest, CheckPassNamesDiagnosesUnknownNameListingRegistry) {
  // The classic typo: the diagnostic must name the offender AND list every
  // registered selectable step so the operator can fix it without digging.
  const auto diag = check_pass_names({"constprop", "ssa-gnv"});
  ASSERT_TRUE(diag.has_value());
  EXPECT_NE(diag->find("unknown pass 'ssa-gnv'"), std::string::npos) << *diag;
  EXPECT_NE(diag->find("registered steps"), std::string::npos) << *diag;
  EXPECT_NE(diag->find("ssa-gvn"), std::string::npos) << *diag;
  EXPECT_NE(diag->find("constprop"), std::string::npos) << *diag;
}

TEST(VccCliTest, CheckPassNamesRejectsStructuralSteps) {
  const auto diag = check_pass_names({"regalloc"});
  ASSERT_TRUE(diag.has_value());
  EXPECT_NE(diag->find("structural"), std::string::npos) << *diag;
}

TEST(VccBatchTest, SsaBatchCompilesAndKeysTheCacheSeparately) {
  const BatchDir dir("ssa");
  dir.add("loop.mc", "global f64 acc = 0.0;\n"
                     "func f64 accumulate(f64 x) {\n"
                     "  local i32 i;\n"
                     "  i = 0;\n"
                     "  while (i < 8) { __annot(\"loop <= 8\");\n"
                     "    acc = acc + x * 2.0; i = i + 1; }\n"
                     "  return acc;\n"
                     "}\n");
  const std::string cache =
      (fs::temp_directory_path() / "vcc-batch-test-ssa-store").string();
  fs::remove_all(cache);
  BatchOptions options;
  options.cache_dir = cache;

  const BatchResult plain = run_batch(dir.path(), options);
  EXPECT_EQ(plain.exit_code, 0);
  // The SSA run must not replay the non-SSA entry: the "+ssa" key salt
  // forces a cold compile under the bracket.
  options.ssa = true;
  const BatchResult ssa_cold = run_batch(dir.path(), options);
  EXPECT_EQ(ssa_cold.exit_code, 0);
  EXPECT_EQ(ssa_cold.cache_hits, 0u);
  const BatchResult ssa_warm = run_batch(dir.path(), options);
  EXPECT_EQ(ssa_warm.exit_code, 0);
  EXPECT_EQ(ssa_warm.cache_hits, 1u);
  fs::remove_all(cache);
}

/// Runs the vcc binary with `args`; returns its exit code and merged
/// stdout/stderr.
std::pair<int, std::string> run_vcc(const std::string& args) {
  const std::string cmd =
      std::string("\"") + VCFLIGHT_VCC_PATH + "\" " + args + " 2>&1";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(VccWcetFlagTest, UnknownFunctionIsAUsageErrorListingFunctions) {
  // envelope.mc defines `authority`; the file name is not a function.
  const auto [code, out] = run_vcc(std::string("--config=verified --wcet=envelope ") +
                                   VCFLIGHT_EXAMPLES_DIR + "/envelope.mc");
  EXPECT_EQ(code, 2) << out;
  EXPECT_NE(out.find("vcc: no function 'envelope' in the image (functions: "
                     "authority)"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("map::at"), std::string::npos) << out;
}

TEST(VccWcetFlagTest, WcetAndMonitoredRunShareOneFunction) {
  // --wcet and a Full-monitored --run of the same function: the run reuses
  // the WCET's flow facts and still checks every step.
  const auto [code, out] = run_vcc(
      std::string("--config=verified --wcet=authority "
                  "--run=authority:1.5,2 --monitor=full ") +
      VCFLIGHT_EXAMPLES_DIR + "/envelope.mc");
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("WCET"), std::string::npos) << out;
  EXPECT_NE(out.find("monitor=full checked="), std::string::npos) << out;
}

// --- every flag is honoured or rejected, in every mode ----------------------

const char kAblation[] =
    "--disable-pass=cse --disable-pass=constprop --disable-pass=dce ";

/// The number after `key` in `text` (e.g. "bytes=" or "(total code)"), or
/// -1 when absent.
long number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return -1;
  return std::strtol(text.c_str() + at + key.size(), nullptr, 10);
}

/// The single-file compile's size of envelope.mc under `flags`.
long local_envelope_bytes(const std::string& flags) {
  const auto [code, out] = run_vcc("--stats " + flags +
                                   VCFLIGHT_EXAMPLES_DIR + "/envelope.mc");
  EXPECT_EQ(code, 0) << out;
  return number_after(out, "(total code)");
}

TEST(VccModeTest, BatchHonoursDisablePassAndKeysTheCacheWithIt) {
  const BatchDir dir("ablation");
  std::ifstream in(std::string(VCFLIGHT_EXAMPLES_DIR) + "/envelope.mc");
  dir.add("envelope.mc", std::string(std::istreambuf_iterator<char>(in), {}));
  const std::string cache =
      (fs::temp_directory_path() / "vcc-batch-test-ablation-store").string();
  fs::remove_all(cache);
  const std::string batch = "--cache-dir=" + cache + " --batch " + dir.path();

  const auto [full_code, full_out] = run_vcc(batch);
  ASSERT_EQ(full_code, 0) << full_out;
  const auto [code, out] = run_vcc(kAblation + batch);
  ASSERT_EQ(code, 0) << out;
  // The ablated batch compiles what the ablated single-file compile does,
  // cold: the full-pipeline entry must not answer it.
  EXPECT_EQ(number_after(out, "function(s), "), local_envelope_bytes(kAblation))
      << out;
  EXPECT_NE(number_after(out, "function(s), "),
            number_after(full_out, "function(s), "))
      << out;
  EXPECT_EQ(out.find("(cached)"), std::string::npos) << out;
  const auto [warm_code, warm_out] = run_vcc(kAblation + batch);
  EXPECT_EQ(warm_code, 0) << warm_out;
  EXPECT_NE(warm_out.find("(cached)"), std::string::npos) << warm_out;
  fs::remove_all(cache);
}

TEST(VccModeTest, ConnectForwardsDisablePass) {
  const std::string socket = (fs::temp_directory_path() /
                              ("vcc-cli-" + std::to_string(::getpid()) +
                               ".sock"))
                                 .string();
  const pid_t pid =
      service::spawn_daemon(VCFLIGHT_VCCD_PATH, {"--socket=" + socket});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(service::wait_until_ready(socket, 30.0));
  const std::string file =
      std::string(VCFLIGHT_EXAMPLES_DIR) + "/envelope.mc";

  const auto [full_code, full_out] =
      run_vcc("--connect=" + socket + " " + file);
  EXPECT_EQ(full_code, 0) << full_out;
  EXPECT_EQ(number_after(full_out, "bytes="), local_envelope_bytes(""))
      << full_out;
  const auto [code, out] =
      run_vcc("--connect=" + socket + " " + kAblation + file);
  EXPECT_EQ(code, 0) << out;
  EXPECT_EQ(out.find("cache=incremental"), std::string::npos) << out;
  EXPECT_EQ(number_after(out, "bytes="), local_envelope_bytes(kAblation))
      << out;
  EXPECT_EQ(service::terminate_daemon(pid, 30.0), 0);
}

/// vcc with `args` must exit 2 naming `flag` and the mode it was given in.
void expect_rejected(const std::string& args, const std::string& flag,
                     const std::string& mode) {
  const auto [code, out] = run_vcc(args);
  EXPECT_EQ(code, 2) << args << "\n" << out;
  EXPECT_NE(out.find(flag + " is not supported in " + mode + " mode"),
            std::string::npos)
      << args << "\n" << out;
}

TEST(VccModeTest, ExecCyclesRequiresConnect) {
  const std::string file =
      std::string(VCFLIGHT_EXAMPLES_DIR) + "/envelope.mc";
  expect_rejected("--exec-cycles=5 " + file, "--exec-cycles", "single-file");
  expect_rejected(
      "--exec-cycles=5 --batch " + std::string(VCFLIGHT_EXAMPLES_DIR),
      "--exec-cycles", "--batch");
}

TEST(VccModeTest, BatchRejectsPerFileFlags) {
  const std::string batch =
      " --batch " + std::string(VCFLIGHT_EXAMPLES_DIR);
  for (const auto& [arg, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"--wcet=nothere", "--wcet"},
           {"--run=authority:1.5,2", "--run"},
           {"--monitor=full", "--monitor"},
           {"--emit-asm", "--emit-asm"},
           {"--stats", "--stats"},
           {"--profile", "--profile"},
           {"--dump-after=cse", "--dump-after"}})
    expect_rejected(arg + batch, flag, "--batch");
}

TEST(VccModeTest, ConnectRejectsLocalOnlyFlags) {
  // Rejected at parse time: no daemon is needed (or contacted).
  const std::string connect = " --connect=/nonexistent/vccd.sock " +
                              std::string(VCFLIGHT_EXAMPLES_DIR) +
                              "/envelope.mc";
  for (const auto& [arg, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"--emit-asm", "--emit-asm"},
           {"--stats", "--stats"},
           {"--profile", "--profile"},
           {"--dump-after=cse", "--dump-after"},
           {"--passes=cse", "--passes"},
           {"--cache-dir=/tmp/vcc-unused", "--cache-dir"},
           {"--cache-budget-mb=5", "--cache-budget-mb"}})
    expect_rejected(arg + connect, flag, "--connect");
}

}  // namespace
}  // namespace vc::tools
