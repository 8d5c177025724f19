// Streaming 128-bit content hashing for the artifact store (src/artifact).
//
// FNV-1a/128: the classic byte-at-a-time fold, widened to 128 bits via the
// compiler's native __int128 multiply, so a digest is cheap enough to verify
// every artifact on load yet wide enough that the store can treat equal
// digests as equal content (collision probability ~2^-64 even across billions
// of entries — far below the disk-corruption rate the check exists to catch).
//
// The hasher is *streaming*: feed any number of update() calls and take the
// digest at the end. Multi-field keys must frame each field with its length
// (update_sized) so ("ab","c") and ("a","bc") cannot collide by concatenation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace vc {

/// A 128-bit digest, comparable and hex-printable (32 lowercase chars).
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) {
    return !(a == b);
  }

  [[nodiscard]] std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i) {
      const std::uint64_t half = i < 8 ? hi : lo;
      const int shift = 56 - 8 * (i % 8);
      const auto byte = static_cast<unsigned>((half >> shift) & 0xFF);
      out[2 * static_cast<std::size_t>(i)] = digits[byte >> 4];
      out[2 * static_cast<std::size_t>(i) + 1] = digits[byte & 0xF];
    }
    return out;
  }
};

/// Incremental FNV-1a/128 hasher.
class Fnv128 {
 public:
  void update(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    unsigned __int128 h = state_;
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    state_ = h;
  }

  void update(std::string_view text) { update(text.data(), text.size()); }

  /// Feeds the 8 little-endian bytes of `v`.
  void update_u64(std::uint64_t v) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
    update(bytes, sizeof bytes);
  }

  /// Length-prefixed field: unambiguous framing for multi-field keys.
  void update_sized(std::string_view field) {
    update_u64(field.size());
    update(field);
  }

  [[nodiscard]] Hash128 digest() const {
    return {static_cast<std::uint64_t>(state_ >> 64),
            static_cast<std::uint64_t>(state_)};
  }

 private:
  // FNV-1a 128-bit offset basis and prime (fnv.org reference parameters).
  static constexpr unsigned __int128 kBasis =
      (static_cast<unsigned __int128>(0x6C62272E07BB0142ull) << 64) |
      0x62B821756295C58Dull;
  static constexpr unsigned __int128 kPrime =
      (static_cast<unsigned __int128>(0x0000000001000000ull) << 64) | 0x13Bull;

  unsigned __int128 state_ = kBasis;
};

/// One-shot convenience over a single buffer.
inline Hash128 fnv128(std::string_view bytes) {
  Fnv128 h;
  h.update(bytes);
  return h.digest();
}

}  // namespace vc
