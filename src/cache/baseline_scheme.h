// Baseline: dynamic page-level mapping without partial programming.
//
// Every host write consumes fresh SLC pages — a request smaller than a
// page leaves the remainder of the page unprogrammed forever (the internal
// fragmentation of Section 1). SLC GC uses the conventional greedy policy
// and evicts all valid data of the victim to the MLC region.
#pragma once

#include "cache/scheme.h"

namespace ppssd::cache {

class BaselineScheme final : public Scheme {
 public:
  explicit BaselineScheme(const SsdConfig& cfg) : Scheme(cfg) {}

  [[nodiscard]] const char* name() const override { return "Baseline"; }

  /// Baseline keeps no side tables beyond the base mapping; the explicit
  /// override documents that the base entries are its full state.
  void inspect(telemetry::introspect::StateSink& sink) const override {
    Scheme::inspect(sink);
  }

 protected:
  // Placement and relocation are the base defaults: fresh Work pages for
  // every write, whole-page eviction for every GC victim page.
  [[nodiscard]] const ftl::GcPolicy& slc_policy() const override {
    return greedy_;
  }
};

}  // namespace ppssd::cache
