#include "telemetry/telemetry.h"

#include <cstdlib>

#include "common/knob.h"
#include "common/units.h"

namespace ppssd::telemetry {

namespace {
std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : fallback;
}

/// A count knob: unset leaves `fallback`; 0 keeps its "off" meaning.
std::uint64_t env_count(const char* name, std::uint64_t fallback) {
  const std::string value = env_or(name, "");
  if (value.empty()) return fallback;
  const auto parsed = parse_whole<std::uint64_t>(value);
  if (!parsed) reject_knob(name, value, "a non-negative integer");
  return *parsed;
}
}  // namespace

TelemetryOptions TelemetryOptions::from_env() {
  TelemetryOptions opts;
  opts.trace_path = env_or("PPSSD_TRACE", "");
  opts.trace_categories =
      parse_categories(env_or("PPSSD_TRACE_CATEGORIES", ""));
  opts.trace_max_events =
      env_count("PPSSD_TRACE_LIMIT", opts.trace_max_events);
  opts.metrics_path = env_or("PPSSD_METRICS", "");
  opts.timeseries_path = env_or("PPSSD_TIMESERIES", "");
  opts.sample_every_requests =
      env_count("PPSSD_SAMPLE_REQUESTS", opts.sample_every_requests);
  const std::string ms = env_or("PPSSD_SAMPLE_MS", "");
  if (!ms.empty()) {
    opts.sample_every_ns = parse_ms_knob("PPSSD_SAMPLE_MS", ms);
  }
  opts.attribution_path = env_or("PPSSD_ATTRIB", "");
  return opts;
}

Telemetry::Telemetry() = default;

Telemetry::Telemetry(const TelemetryOptions& opts) : opts_(opts) {
  if (!opts_.trace_path.empty()) {
    TraceLog::Options to;
    to.categories = opts_.trace_categories;
    to.max_events = opts_.trace_max_events;
    trace_ = TraceLog::open_file(opts_.trace_path, to);
  }
  if (!opts_.timeseries_path.empty()) {
    timeseries_file_.open(opts_.timeseries_path);
    if (timeseries_file_) {
      TimeSeriesSampler::Options so;
      so.every_requests = opts_.sample_every_requests;
      so.every_ns = opts_.sample_every_ns;
      sampler_ = std::make_unique<TimeSeriesSampler>(registry_,
                                                     timeseries_file_, so);
    }
  }
  if (opts_.attribution || !opts_.attribution_path.empty()) {
    attribution_ = std::make_unique<attribution::AttributionLedger>();
    if (!opts_.attribution_path.empty()) {
      attribution_->open_dump(opts_.attribution_path);
    }
  }
}

Telemetry::~Telemetry() { finish(0); }

std::unique_ptr<Telemetry> Telemetry::from_env() {
  const TelemetryOptions opts = TelemetryOptions::from_env();
  if (!opts.any()) return nullptr;
  return std::make_unique<Telemetry>(opts);
}

void Telemetry::finish(SimTime end) {
  if (finished_) return;
  finished_ = true;
  if (sampler_) sampler_->finish(end);
  if (!opts_.metrics_path.empty()) {
    std::ofstream out(opts_.metrics_path);
    if (out) {
      const std::string& p = opts_.metrics_path;
      const bool json = p.size() >= 5 && p.compare(p.size() - 5, 5, ".json") == 0;
      if (json) {
        registry_.write_json(out);
      } else {
        registry_.write_csv(out);
      }
    }
  }
  if (attribution_) attribution_->close_dump();
  if (trace_) trace_->close();
}

}  // namespace ppssd::telemetry
