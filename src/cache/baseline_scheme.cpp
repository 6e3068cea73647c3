#include "cache/baseline_scheme.h"


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

}  // namespace ppssd::cache
