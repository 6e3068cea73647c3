// Trace-name check shared by the examples' command lines.
#pragma once

#include <string>

#include "common/knob.h"
#include "trace/profiles.h"

namespace ppssd::examples {

/// `value` if it names one of trace::paper_profiles(); otherwise exit 2
/// with one line listing the known names.
inline const std::string& check_trace_name(const char* name,
                                           const std::string& value) {
  std::string known;
  for (const auto& p : trace::paper_profiles()) {
    if (p.name == value) return value;
    known += known.empty() ? "" : " ";
    known += p.name;
  }
  known = "one of: " + known;
  reject_knob(name, value, known.c_str());
}

}  // namespace ppssd::examples
