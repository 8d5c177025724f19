// The reference form of vc::format_double, kept only for the printer parity
// test (misc_test): the plain search that tries every %g precision from 6
// up until the text round-trips. format_double starts the same search
// later; the text must stay byte-identical, since it is part of every
// printed program and so of every artifact key.
#pragma once

#include <cstdio>
#include <string>

namespace vc::reference {

inline std::string format_double(double value) {
  for (int precision = 6; precision <= 17; ++precision) {
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

}  // namespace vc::reference
