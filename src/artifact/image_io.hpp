// Binary serialization of linked images (mach::Image) for the artifact store:
// a cached compile is only useful if the *executable* — code words, initial
// data, symbol tables, and the annotation table the WCET analyzer consumes —
// round-trips exactly. The format is explicit little-endian with a magic and
// version word, so a stale-format entry deserializes to a clean error (the
// store treats it as corrupt and falls back to a cold compile) rather than a
// silently wrong image.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mach/program.hpp"

namespace vc::artifact {

/// Current serialization format version; bump on any layout change so old
/// store entries miss instead of mis-parse.
inline constexpr std::uint32_t kImageFormatVersion = 2;

/// Serializes `image` to the versioned binary format.
std::vector<std::uint8_t> serialize_image(const mach::Image& image);

/// Deserialization outcome: the image, or a diagnostic. Never throws —
/// malformed cache bytes are expected input for the store's fallback path.
struct ImageParse {
  mach::Image image;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

ImageParse deserialize_image(const std::vector<std::uint8_t>& bytes);

/// Renders the image's annotation table as the human-readable "annotation
/// file" of the paper's §3.4 flow (one line per entry: address, format,
/// operand locations). Stored next to the image in a store entry for
/// debuggability; the authoritative copy the analyzer consumes lives inside
/// the serialized image.
std::string annotation_text(const mach::Image& image);

}  // namespace vc::artifact
