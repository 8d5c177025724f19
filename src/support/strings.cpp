#include "support/strings.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace vc {

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08" PRIx32, value);
  return buf;
}

std::string format_double(double value) {
  // Try increasing precision until the text round-trips exactly. No
  // precision below the digit count of the shortest round-tripping form can
  // round-trip, so the search starts there (never below 6, so the text is
  // that of a search from 6). The scientific form counts exactly those
  // digits; the plain one prints a large integer in full.
  char shortest[32];
  const char* const end =
      std::to_chars(shortest, shortest + sizeof shortest, value,
                    std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* c = shortest; c != end && *c != 'e'; ++c)
    if (*c >= '0' && *c <= '9') ++digits;
  for (int precision = std::max(6, digits); precision <= 17;
       ++precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == value) return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::optional<int> parse_count_flag(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE || v < 0 ||
      v > 1000000)
    return std::nullopt;
  return static_cast<int>(v);
}

}  // namespace vc
