// Small string-formatting helpers shared across the toolchain.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vc {

/// Formats `value` as 0x%08x.
std::string hex32(std::uint32_t value);

/// Formats a double with enough precision to round-trip (shortest of %g forms).
std::string format_double(double value);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Pads `s` on the right with spaces to at least `width` characters.
std::string pad_right(const std::string& s, std::size_t width);

/// Pads `s` on the left with spaces to at least `width` characters.
std::string pad_left(const std::string& s, std::size_t width);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Parses a decimal count flag value ("--jobs=N"); nullopt on malformed
/// input or values outside [0, 1000000]. Negative values are malformed by
/// policy: they must never reach a thread pool or a byte budget.
std::optional<int> parse_count_flag(const std::string& text);

}  // namespace vc
