// Whole-value parsing for PPSSD_* environment knobs.
//
// A knob either parses in full or the process stops with exit code 2 and
// one line naming the knob, its value and what was expected — never an
// uncaught exception, a wrapped value or a silent fallback.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/config.h"
#include "common/types.h"
#include "common/units.h"

namespace ppssd {

/// Parse the whole of `value` as a T, or nullopt. std::from_chars takes no
/// leading whitespace or '+', and no '-' for unsigned T.
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

/// Reject a malformed knob with one line naming it and its value.
[[noreturn]] inline void reject_knob(const char* name,
                                     const std::string& value,
                                     const char* expected) {
  std::fprintf(stderr, "ppssd: invalid %s='%s': expected %s\n", name,
               value.c_str(), expected);
  std::exit(2);
}

/// A sim-time window knob in milliseconds, returned in nanoseconds. The
/// value must be finite, non-negative and small enough that the SimTime
/// conversion cannot overflow; anything else is rejected.
[[nodiscard]] inline SimTime parse_ms_knob(const char* name,
                                           const std::string& value) {
  constexpr double kMaxMs =
      static_cast<double>(std::numeric_limits<SimTime>::max() / 2'000'000);
  const auto parsed = parse_whole<double>(value);
  if (!parsed || !std::isfinite(*parsed) || *parsed < 0.0 ||
      *parsed > kMaxMs) {
    reject_knob(name, value, "a non-negative sim-time window in milliseconds");
  }
  return ms_to_ns(*parsed);
}

/// A trace replay fraction in (0, 1]; SyntheticWorkload takes no other.
[[nodiscard]] inline double parse_scale_knob(const char* name,
                                             const std::string& value) {
  const auto parsed = parse_whole<double>(value);
  if (!parsed || !std::isfinite(*parsed) || *parsed <= 0.0 || *parsed > 1.0) {
    reject_knob(name, value, "a trace scale in (0, 1]");
  }
  return *parsed;
}

/// A device size in blocks: a positive integer whose scaled device
/// passes SsdConfig::validate, so an impossible geometry stops here with
/// one line rather than aborting inside FlashArray.
[[nodiscard]] inline std::uint32_t parse_blocks_knob(const char* name,
                                                     const std::string& value) {
  const auto parsed = parse_whole<std::uint32_t>(value);
  if (!parsed || *parsed == 0) {
    reject_knob(name, value, "a positive integer block count");
  }
  std::string err = SsdConfig::scaled(*parsed).validate();
  if (!err.empty()) {
    if (err.ends_with("; ")) err.resize(err.size() - 2);
    err = "a block count giving a valid device (" + err + ")";
    reject_knob(name, value, err.c_str());
  }
  return *parsed;
}

}  // namespace ppssd
