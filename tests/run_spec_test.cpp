// The knob table (driver/run_spec.hpp) against every identity it feeds.
// Each row is flipped from its default, one at a time: every identity the
// row declares (artifact key, results-stanza params, vccd class_key and
// request_hash, fleet report header) must change, and every identity it
// does not declare must stay equal. Each row also round-trips through the
// vccd wire (job_to_json -> parse_request) and, when it has a flag, through
// the command-line parser of every surface that spells it.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataflow/acg.hpp"
#include "dataflow/generator.hpp"
#include "driver/fleet.hpp"
#include "driver/run_spec.hpp"
#include "minic/printer.hpp"
#include "minic/typecheck.hpp"
#include "service/protocol.hpp"
#include "support/json.hpp"
#include "validate/validate.hpp"

namespace vc {
namespace {

using driver::JobSpec;
using driver::SpecField;

/// A non-default value for every row, as JSON. A new row fails the test
/// until it gets one here.
const std::map<std::string, json::Value>& flipped_values() {
  static const std::map<std::string, json::Value> values = [] {
    std::map<std::string, json::Value> v;
    v["config"] = json::Value("O2-full");
    v["target"] = json::Value("rv32");
    v["ssa"] = json::Value(true);
    v["disable_passes"] = json::Value(json::Array{json::Value("cse")});
    v["validate"] = json::Value("full");
    v["exec_cycles"] = json::Value(5);
    v["cold_caches"] = json::Value(true);
    v["wcet"] = json::Value(true);
    v["wcet_nocache"] = json::Value(true);
    v["wcet_engine"] = json::Value("ipet");
    v["use_annotations"] = json::Value(false);
    v["monitor"] = json::Value("full");
    v["input_seed"] = json::Value(static_cast<std::uint64_t>(99));
    return v;
  }();
  return values;
}

/// `base` with one row set to its flipped value.
JobSpec flip(const SpecField& field, JobSpec base = {}) {
  const auto it = flipped_values().find(field.key);
  if (it == flipped_values().end())
    throw std::logic_error(std::string("no flipped value for row '") +
                           field.key + "'");
  const std::string error = field.set(base, it->second);
  if (!error.empty()) throw std::logic_error(error);
  return base;
}

constexpr const char* kSource = "func f64 gain(f64 x) { return 3.0 * x; }\n";

/// The fleet report header for a campaign of no units under `spec`, with
/// the wall-clock field blanked.
std::string header_of(const JobSpec& spec) {
  driver::FleetOptions options;
  static_cast<driver::RunSpec&>(options) = spec;
  options.jobs = 1;
  validate::attach_campaign_validation(&options);
  json::Value doc = driver::to_json(driver::run_fleet({}, options));
  doc["wall_seconds"] = json::Value();
  return doc.dump();
}

/// Every identity of `spec`, by salt bit.
std::map<unsigned, std::string> identities(const JobSpec& spec) {
  service::JobRequest request;
  static_cast<JobSpec&>(request) = spec;
  request.id = 1;
  request.name = "gain";
  request.source = kSource;
  request.entry = "gain";
  return {
      {driver::kSaltArtifact,
       driver::artifact_key(spec, kSource, "gain").hex()},
      {driver::kSaltParams,
       driver::spec_json(spec, driver::kSaltParams).dump()},
      {driver::kSaltClass, request.class_key()},
      {driver::kSaltRequest, request.request_hash().hex()},
      {driver::kSaltHeader, header_of(spec)},
  };
}

const char* salt_name(unsigned salt) {
  switch (salt) {
    case driver::kSaltArtifact: return "artifact key";
    case driver::kSaltParams: return "results-stanza params";
    case driver::kSaltClass: return "class_key";
    case driver::kSaltRequest: return "request_hash";
    case driver::kSaltHeader: return "report header";
  }
  return "?";
}

TEST(RunSpecTest, EveryFieldSaltsExactlyWhatItDeclares) {
  const std::map<unsigned, std::string> base = identities(JobSpec{});
  for (const SpecField& field : driver::spec_fields()) {
    const std::map<unsigned, std::string> flipped =
        identities(flip(field));
    for (const auto& [salt, value] : base) {
      if ((field.salts & salt) != 0)
        EXPECT_NE(flipped.at(salt), value)
            << field.key << " declares the " << salt_name(salt)
            << " but does not change it";
      else
        EXPECT_EQ(flipped.at(salt), value)
            << field.key << " changes the " << salt_name(salt)
            << " without declaring it";
    }
  }
}

TEST(RunSpecTest, EveryFieldRoundTripsThroughTheWire) {
  for (const SpecField& field : driver::spec_fields()) {
    service::JobRequest request;
    static_cast<JobSpec&>(request) = flip(field);
    request.id = 7;
    request.source = kSource;
    const service::ParsedRequest parsed =
        service::parse_request(service::job_to_json(request).dump());
    ASSERT_TRUE(parsed.ok()) << field.key << ": " << parsed.error;
    ASSERT_TRUE(parsed.job.has_value());
    EXPECT_EQ(driver::spec_json(*parsed.job, ~0u).dump(),
              driver::spec_json(request, ~0u).dump())
        << field.key;
  }
}

/// The command-line words that set `field` to its value in `spec`.
std::vector<std::string> cli_words(const SpecField& field,
                                   const JobSpec& spec) {
  const json::Value value = field.get(spec);
  std::vector<std::string> texts;
  if (value.is_array()) {
    for (const json::Value& item : value.as_array())
      texts.push_back(item.as_string());
  } else {
    texts.push_back(value.kind() == json::Value::Kind::String
                        ? value.as_string()
                        : value.dump());
  }
  std::vector<std::string> words;
  for (const std::string& text : texts)
    words.push_back(field.bare != nullptr && text == field.bare
                        ? std::string(field.flag)
                        : std::string(field.flag) + "=" + text);
  return words;
}

TEST(RunSpecTest, EveryFlagRoundTripsThroughTheCommandLine) {
  int flags = 0;
  for (const SpecField& field : driver::spec_fields()) {
    if (field.flag == nullptr) continue;
    ++flags;
    const JobSpec want = flip(field);
    for (const driver::CliSurface surface :
         {driver::kCliVcc, driver::kCliBench}) {
      if ((field.surfaces & surface) == 0) continue;
      JobSpec got;
      for (const std::string& word : cli_words(field, want)) {
        const auto error = driver::parse_spec_flag(word, surface, &got);
        ASSERT_TRUE(error.has_value()) << word;
        EXPECT_EQ(*error, "") << word;
      }
      EXPECT_EQ(driver::spec_json(got, ~0u).dump(),
                driver::spec_json(want, ~0u).dump())
          << field.key;
    }
  }
  EXPECT_GT(flags, 0);
}

TEST(RunSpecTest, FlagsStayOnTheirSurfaces) {
  JobSpec spec;
  // vcc-only knobs are not bench flags: the bench parser leaves them to
  // its own (rejecting) fallback.
  EXPECT_FALSE(driver::parse_spec_flag("--exec-cycles=5", driver::kCliBench,
                                       &spec)
                   .has_value());
  EXPECT_FALSE(driver::parse_spec_flag("--config=O2", driver::kCliBench, &spec)
                   .has_value());
  EXPECT_EQ(driver::spec_usage(driver::kCliBench),
            "[--target=ppc|rv32] [--ssa] [--disable-pass=NAME] "
            "[--validate[=off|rtl|full]] "
            "[--wcet-engine=structural|ipet|both] [--monitor=off|cfg|full]");
}

TEST(RunSpecTest, BadCommandLineValuesAreNamedDiagnostics) {
  JobSpec spec;
  const auto value = [&](const std::string& arg) {
    return driver::parse_spec_flag(arg, driver::kCliVcc, &spec).value_or("");
  };
  EXPECT_NE(value("--target=riscv").find("unknown target 'riscv'"),
            std::string::npos);
  EXPECT_NE(value("--disable-pass=ssa-gnv").find("registered steps"),
            std::string::npos);
  EXPECT_NE(value("--exec-cycles=-1").find("non-negative"), std::string::npos);
  EXPECT_NE(value("--exec-cycles=1000001").find("out of range"),
            std::string::npos);
  EXPECT_NE(value("--ssa=1").find("takes no value"), std::string::npos);
  EXPECT_NE(value("--monitor").find("needs a value"), std::string::npos);
  EXPECT_EQ(driver::spec_json(spec, ~0u).dump(),
            driver::spec_json(JobSpec{}, ~0u).dump())
      << "a rejected value must leave the spec untouched";
}

TEST(RunSpecTest, ValidatedSpecWithoutOverrideIsRejected) {
  driver::FleetOptions options;
  options.validate = driver::ValidateLevel::Rtl;
  EXPECT_THROW((void)driver::run_fleet({}, options), std::invalid_argument);
  validate::attach_campaign_validation(&options);
  EXPECT_NO_THROW((void)driver::run_fleet({}, options));
}

TEST(RunSpecTest, ArtifactKeyOfTheFirstSuiteNodeIsPinned) {
  // The key hashes the printed program, so a printer change that moves its
  // text (a float literal's digits, say) re-keys every store and fails
  // here, as does a change of the spec identity or the compiler version.
  const dataflow::Node node = dataflow::generate_suite(20110318, 1).at(0);
  minic::Program program;
  program.name = node.name();
  dataflow::generate_node(node, &program);
  minic::type_check(program);
  EXPECT_EQ(driver::artifact_key(JobSpec{}, minic::print_program(program),
                                 dataflow::step_function_name(node))
                .hex(),
            "dd18e9ef5d6a93ae0d64ffb29e12f52f");
}

}  // namespace
}  // namespace vc
