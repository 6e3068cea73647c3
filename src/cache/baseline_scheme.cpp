#include "cache/baseline_scheme.h"

#include <vector>

#include "cache/registry.h"
#include "common/check.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar baseline_registrar(SchemeInfo{
    "Baseline",
    "dynamic page-level mapping, partial programming disabled",
    /*order=*/0,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      PPSSD_CHECK_MSG(opts.empty(), "Baseline scheme takes no options");
      return std::make_unique<BaselineScheme>(cfg);
    },
    [](const ftl::MappingFootprint& fp) { return fp.baseline(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void baseline_scheme_link() {}
}  // namespace detail

void BaselineScheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                                 std::vector<PhysOp>& ops) {
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint32_t n = std::min(count - i, subpages_per_page());
    write_work_page(lsn + i, n, now, ops);
    i += n;
  }
}

void BaselineScheme::relocate_slc_page(BlockId victim, PageId page,
                                       SimTime now, std::vector<PhysOp>& ops) {
  evict_page_to_mlc(victim, page, now, ops);
}

}  // namespace ppssd::cache
