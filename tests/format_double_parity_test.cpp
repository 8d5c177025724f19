// format_double against the plain search it replaced
// (reference_format_double.hpp), byte for byte: its text is part of every
// printed program and so of every artifact key, so a difference would
// re-key every store. The sweep takes about a second.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "reference_format_double.hpp"
#include "support/strings.hpp"

namespace vc {
namespace {

TEST(FormatDoubleParityTest, MatchesTheReferenceSearch) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                0.1,
                                1e23,
                                5e-324,
                                123456789012345680.0};
  // Every power of two and its neighbours one ulp away, both signs: the
  // round-trip interval is lopsided there.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, std::nextafter(p, 0.0),
                           std::nextafter(p, HUGE_VAL)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Seeded random bit patterns (subnormals, huge and tiny exponents) and
  // uniform values (the shape of generated gains).
  std::mt19937_64 rng(20110318);
  std::uniform_real_distribution<double> uniform(-1000.0, 1000.0);
  for (int i = 0; i < 50000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(uniform(rng));
  }
  // Subnormals by mantissa.
  for (std::uint64_t m = 1; m < (std::uint64_t{1} << 52); m = m * 3 + 1)
    values.push_back(std::bit_cast<double>(m));

  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = reference::format_double(v);
    if (format_double(v) != want && ++mismatches <= 10)
      ADD_FAILURE() << std::bit_cast<std::uint64_t>(v) << ": want " << want
                    << ", got " << format_double(v);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

}  // namespace
}  // namespace vc
