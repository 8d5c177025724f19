#include "driver/run_spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <type_traits>

#include "artifact/store.hpp"
#include "mach/target.hpp"
#include "pass/pass.hpp"

namespace vc::driver {

namespace {

using Kind = json::Value::Kind;

template <typename Names>
std::string join(const Names& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

// --- value codecs ----------------------------------------------------------
//
// A codec fixes a field's type: the JSON kind it travels as (`kType`,
// `accepts`), its rendering (`to_json`), how one command-line or JSON value
// is checked and stored (`parse`, `from_json`), and the usage placeholder
// (`choices`).

struct BoolCodec {
  static constexpr const char* kType = "a bool";
  static bool accepts(const json::Value& v) { return v.kind() == Kind::Bool; }
  static json::Value to_json(bool v) { return json::Value(v); }
  static std::string from_json(const json::Value& v, bool* out) {
    *out = v.as_bool();
    return "";
  }
  /// Only the bare spellings reach here: boolean flags take no value.
  static std::string parse(const std::string& text, bool* out) {
    *out = text == "true";
    return "";
  }
  static std::string choices() { return ""; }
};

/// Non-negative integers up to kMax: execution counts and seeds.
template <typename T, std::uint64_t kMax>
struct UnsignedCodec {
  static constexpr const char* kType = "a non-negative integer";
  static bool accepts(const json::Value& v) {
    return v.kind() == Kind::UInt || (v.kind() == Kind::Int && v.as_i64() >= 0);
  }
  static json::Value to_json(T v) {
    return json::Value(static_cast<std::uint64_t>(v));
  }
  static std::string store(std::uint64_t v, T* out) {
    if (v > kMax)
      return "value " + std::to_string(v) + " out of range 0.." +
             std::to_string(kMax);
    *out = static_cast<T>(v);
    return "";
  }
  static std::string from_json(const json::Value& v, T* out) {
    return store(v.as_u64(), out);
  }
  static std::string parse(const std::string& text, T* out) {
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' ||
        end != text.c_str() + text.size() || errno == ERANGE)
      return "expected a non-negative integer, got '" + text + "'";
    return store(v, out);
  }
  static std::string choices() { return "N"; }
};

/// Values spelled by name on the wire and on the command line. `Names`
/// supplies kNoun, name(), lookup() (nullopt for an unknown name) and all().
template <typename T, typename Names>
struct NameCodec {
  static constexpr const char* kType = "a string";
  static bool accepts(const json::Value& v) { return v.kind() == Kind::String; }
  static json::Value to_json(const T& v) { return json::Value(Names::name(v)); }
  static std::string from_json(const json::Value& v, T* out) {
    return parse(v.as_string(), out);
  }
  static std::string parse(const std::string& text, T* out) {
    const std::optional<T> v = Names::lookup(text);
    if (!v) return std::string("unknown ") + Names::kNoun + " '" + text + "'";
    *out = *v;
    return "";
  }
  static std::string choices() { return Names::all(); }
};

/// An enum whose values index the name table kNames.
template <typename E, const auto& kNames, const char* kNounText>
struct EnumNames {
  static constexpr const char* kNoun = kNounText;
  static std::string name(E v) { return kNames[static_cast<int>(v)]; }
  static std::optional<E> lookup(const std::string& text) {
    for (std::size_t i = 0; i < std::size(kNames); ++i)
      if (text == kNames[i]) return static_cast<E>(i);
    return std::nullopt;
  }
  static std::string all() { return join(kNames); }
};

constexpr char kValidateNoun[] = "validate level";
constexpr char kEngineNoun[] = "wcet engine";
constexpr char kMonitorNoun[] = "monitor mode";

/// Configurations render by their full name and parse from either spelling.
struct ConfigNames {
  static constexpr const char* kNoun = "config";
  static std::string name(Config c) { return to_string(c); }
  static std::optional<Config> lookup(const std::string& t) {
    return parse_config(t);
  }
  static std::string all() {
    std::vector<std::string> names;
    for (const ConfigName& n : kConfigNames) names.emplace_back(n.cli);
    return join(names);
  }
};

/// Targets: the registered src/targets names.
struct TargetNames {
  static constexpr const char* kNoun = "target";
  static std::string name(const std::string& t) { return t; }
  static std::optional<std::string> lookup(const std::string& t) {
    const std::vector<std::string> known = mach::target_names();
    if (std::find(known.begin(), known.end(), t) == known.end())
      return std::nullopt;
    return t;
  }
  static std::string all() { return join(mach::target_names()); }
};

/// Optimization-step lists: a JSON array on the wire, one name per
/// (repeatable) flag on the command line.
struct PassListCodec {
  using T = std::vector<std::string>;
  static constexpr const char* kType = "an array of strings";
  static bool accepts(const json::Value& v) {
    return v.is_array() &&
           std::all_of(v.as_array().begin(), v.as_array().end(),
                       [](const json::Value& item) {
                         return item.kind() == Kind::String;
                       });
  }
  static json::Value to_json(const T& names) {
    return json::Value(json::Array(names.begin(), names.end()));
  }
  static std::string from_json(const json::Value& v, T* out) {
    T names;
    for (const json::Value& item : v.as_array())
      names.push_back(item.as_string());
    if (const auto bad = check_pass_names(names)) return *bad;
    *out = std::move(names);
    return "";
  }
  static std::string parse(const std::string& text, T* out) {
    if (const auto bad = check_pass_names({text})) return *bad;
    out->push_back(text);
    return "";
  }
  static std::string choices() { return "NAME"; }
};

// --- the table -------------------------------------------------------------

template <auto Member, typename Codec>
SpecField field(const char* key, unsigned salts, const char* flag = nullptr,
                unsigned surfaces = 0, const char* bare = nullptr,
                bool valued = true) {
  using T = std::remove_reference_t<decltype(std::declval<JobSpec&>().*Member)>;
  return {key, salts, flag, surfaces, bare, valued,
          std::is_same_v<T, std::vector<std::string>>,
          [](const JobSpec& s) { return Codec::to_json(s.*Member); },
          [](JobSpec& s, const json::Value& v) -> std::string {
            if (!Codec::accepts(v)) return std::string("must be ") + Codec::kType;
            return Codec::from_json(v, &(s.*Member));
          },
          [](JobSpec& s, const std::string& text) {
            return Codec::parse(text, &(s.*Member));
          },
          &Codec::choices};
}

using ValidateCodec = NameCodec<
    ValidateLevel, EnumNames<ValidateLevel, kValidateLevelNames, kValidateNoun>>;
using EngineCodec = NameCodec<
    wcet::WcetEngine,
    EnumNames<wcet::WcetEngine, wcet::kWcetEngineNames, kEngineNoun>>;
using MonitorCodec = NameCodec<
    machine::MonitorMode,
    EnumNames<machine::MonitorMode, machine::kMonitorModeNames, kMonitorNoun>>;

// A compile-shaping knob keys the artifact; a run knob keys the results
// stanza within it. Both split vccd batches and key its memo.
constexpr unsigned kCompile = kSaltArtifact | kSaltClass | kSaltRequest;
constexpr unsigned kRun = kSaltParams | kSaltClass | kSaltRequest;
constexpr unsigned kBoth = kCliVcc | kCliBench;

const SpecField kFields[] = {
    field<&JobSpec::config, NameCodec<Config, ConfigNames>>(
        "config", kCompile, "--config", kCliVcc),
    field<&RunSpec::target, NameCodec<std::string, TargetNames>>(
        "target", kCompile | kSaltHeader, "--target", kBoth),
    field<&RunSpec::ssa, BoolCodec>("ssa", kCompile | kSaltHeader, "--ssa",
                                    kBoth, "true", false),
    field<&RunSpec::disable_passes, PassListCodec>(
        "disable_passes", kCompile, "--disable-pass", kBoth),
    // Validated compiles bypass the artifact store: nothing is cached under
    // a validation level, so it salts only the vccd identities.
    field<&RunSpec::validate, ValidateCodec>(
        "validate", kSaltClass | kSaltRequest, "--validate", kBoth, "rtl"),
    field<&RunSpec::exec_cycles, UnsignedCodec<int, 1000000>>(
        "exec_cycles", kRun, "--exec-cycles", kCliVcc),
    field<&RunSpec::cold_caches, BoolCodec>("cold_caches", kRun),
    field<&RunSpec::wcet, BoolCodec>("wcet", kRun),
    field<&RunSpec::wcet_nocache, BoolCodec>("wcet_nocache", kRun),
    field<&RunSpec::wcet_engine, EngineCodec>(
        "wcet_engine", kRun | kSaltHeader, "--wcet-engine", kBoth),
    field<&RunSpec::use_annotations, BoolCodec>(
        "use_annotations", kCompile, "--no-annotations", kCliVcc, "false",
        false),
    field<&RunSpec::monitor, MonitorCodec>("monitor", kRun | kSaltHeader,
                                           "--monitor", kBoth),
    field<&JobSpec::input_seed, UnsignedCodec<std::uint64_t, UINT64_MAX>>(
        "input_seed", kSaltParams | kSaltRequest),
};

}  // namespace

std::span<const SpecField> spec_fields() { return kFields; }

const SpecField* find_spec_field(std::string_view key) {
  for (const SpecField& f : kFields)
    if (key == f.key) return &f;
  return nullptr;
}

const SpecField* find_spec_flag(std::string_view flag) {
  for (const SpecField& f : kFields)
    if (f.flag != nullptr && flag == f.flag) return &f;
  return nullptr;
}

json::Value spec_json(const JobSpec& spec, unsigned salts) {
  json::Value doc{json::Object{}};
  for (const SpecField& f : kFields)
    if ((f.salts & salts) != 0) doc[f.key] = f.get(spec);
  return doc;
}

std::string spec_from_json(const json::Value& doc, JobSpec* spec) {
  for (const SpecField& f : kFields) {
    const json::Value& v = doc.at(f.key);
    if (v.is_null()) continue;
    if (std::string error = f.set(*spec, v); !error.empty())
      return std::string("field '") + f.key + "': " + error;
  }
  return "";
}

std::string spec_identity(const JobSpec& spec, Salt salt) {
  return std::string(kSpecKeyVersion) + spec_json(spec, salt).dump();
}

Hash128 artifact_key(const JobSpec& spec, std::string_view source,
                     std::string_view entry) {
  return artifact::ArtifactStore::make_key(
      source, entry, spec_identity(spec, kSaltArtifact), kCompilerVersion);
}

std::optional<std::string> parse_spec_flag(const std::string& arg,
                                           CliSurface surface,
                                           JobSpec* spec) {
  const std::size_t eq = arg.find('=');
  const std::string flag = arg.substr(0, eq);
  const SpecField* f = find_spec_flag(flag);
  if (f == nullptr || (f->surfaces & surface) == 0) return std::nullopt;
  if (eq == std::string::npos) {
    if (f->bare == nullptr)
      return flag + " needs a value (" + flag + "=" + f->choices() + ")";
    return f->parse(*spec, f->bare);
  }
  if (!f->valued) return flag + " takes no value";
  std::string error = f->parse(*spec, arg.substr(eq + 1));
  return error.empty() ? error : flag + ": " + error;
}

std::string spec_usage(CliSurface surface) {
  std::string out;
  for (const SpecField& f : kFields) {
    if (f.flag == nullptr || (f.surfaces & surface) == 0) continue;
    out += out.empty() ? "[" : " [";
    out += f.flag;
    if (f.valued)
      out += f.bare != nullptr ? "[=" + f.choices() + "]" : "=" + f.choices();
    out += ']';
  }
  return out;
}

std::optional<std::string> check_pass_names(
    const std::vector<std::string>& names) {
  const pass::Registry registry = pass::Registry::builtin();
  std::string selectable;
  for (const std::string& n : registry.names()) {
    if (registry.find(n)->structural) continue;
    if (!selectable.empty()) selectable += ", ";
    selectable += n;
  }
  for (const std::string& name : names) {
    const pass::StepDef* def = registry.find(name);
    if (def == nullptr)
      return "unknown pass '" + name + "'; registered steps: " + selectable;
    if (def->structural)
      return "pass '" + name +
             "' is structural and cannot be selected or disabled";
  }
  return std::nullopt;
}

}  // namespace vc::driver
