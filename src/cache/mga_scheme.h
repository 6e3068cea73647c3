// MGA: mapping-granularity-adaptive aggregation (Feng et al., DATE'17).
//
// Small writes of *different* requests are appended into the currently
// open SLC page of a plane with partial programming, until the page's
// subpage slots or its partial-program budget run out. This maximises
// page utilisation (Figure 9's ~100%) at the cost of in-page program
// disturb on the other requests' live data sharing the page, and of a
// two-level mapping table over the whole SLC region (Figure 11).
#pragma once

#include <vector>

#include "cache/scheme.h"
#include "ftl/subpage_mapping.h"

namespace ppssd::cache {

class MgaScheme final : public Scheme {
 public:
  explicit MgaScheme(const SsdConfig& cfg);

  [[nodiscard]] const char* name() const override { return "MGA"; }

  [[nodiscard]] const ftl::SecondLevelTable& second_level() const {
    return second_level_;
  }

  /// Base entries plus the two-level table's occupancy and the count of
  /// currently open per-plane aggregation pages.
  void inspect(telemetry::introspect::StateSink& sink) const override;

 protected:
  void place_write(Lsn lsn, std::uint32_t count, SimTime now,
                   std::vector<PhysOp>& ops) override;
  [[nodiscard]] const ftl::GcPolicy& slc_policy() const override {
    return greedy_;
  }
  void on_slc_block_erased(BlockId block) override;
  void on_slc_slot_invalidated(const PhysicalAddress& addr) override;
  void save_scheme_state(io::StateSink& sink) const override;
  void restore_scheme_state(io::StateSource& src) override;

 private:
  ftl::SecondLevelTable second_level_;
};

}  // namespace ppssd::cache
