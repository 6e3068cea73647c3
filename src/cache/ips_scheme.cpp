#include "cache/ips_scheme.h"

#include <vector>

#include "cache/registry.h"
#include "common/check.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar ips_registrar(SchemeInfo{
    "IPS",
    "in-place switch: SLC cache promoted to dense mode by reprogramming",
    /*order=*/3,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      auto scheme = std::make_unique<IpsScheme>(cfg);
      if (!opts.empty()) {
        scheme->set_options(IpsScheme::Options::from_scheme_options(opts));
      }
      return scheme;
    },
    [](const ftl::MappingFootprint& fp) { return fp.ips(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void ips_scheme_link() {}
}  // namespace detail

SchemeOptions IpsScheme::Options::to_scheme_options() const {
  SchemeOptions opts;
  opts.set("rpg", use_reprogram ? "1" : "0");
  return opts;
}

IpsScheme::Options IpsScheme::Options::from_scheme_options(
    const SchemeOptions& opts) {
  for (const auto& [key, value] : opts.entries) {
    PPSSD_CHECK_MSG(key == "rpg",
                    ("unknown IPS option '" + key + "'; known options: rpg")
                        .c_str());
  }
  Options out;
  out.use_reprogram = opts.flag("rpg", out.use_reprogram);
  return out;
}

void IpsScheme::on_attach_telemetry(telemetry::MetricsRegistry* registry,
                                    const telemetry::Labels& labels) {
  if (registry == nullptr) {
    tl_reprogrammed_ = tl_fallback_ = nullptr;
    return;
  }
  tl_reprogrammed_ = registry->counter("reprogrammed_subpages", labels);
  tl_fallback_ = registry->counter("reprogram_fallback_subpages", labels);
}

void IpsScheme::relocate_slc_page(const VictimPage& src, SimTime now,
                                  std::vector<PhysOp>& ops) {
  // Defensive fallback: a page outside frontier state (cannot happen with
  // IPS placement, which never partial-programs) is not reprogram-eligible
  // and takes the conventional read-migrate path, including the page read
  // the fast path skipped.
  const bool reprogram = opts_.use_reprogram &&
                         array_.page(src.block, src.page).program_ops() == 1;
  if (opts_.use_reprogram && !reprogram) {
    emit_page_read(src.block, src.count, src.max_ber, /*background=*/true,
                   ops);
    gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
  }

  // The switch converts cells in place, so the surviving slots keep their
  // positions: slot i of the SLC page becomes slot i of a plane-local
  // dense page. The oracle and the fallback make the identical state
  // change through a conventional program (the source read was emitted by
  // the GC driver or above).
  const ftl::PageAlloc alloc = allocate_dense_page(
      array_.block_static(src.block).plane, now, ops);
  commit_page(alloc.block, alloc.page, src.writes(), Retire::kSource,
              src.sources(), now, ops,
              reprogram ? PhysOp::Kind::kReprogram : PhysOp::Kind::kProgram);
  if (reprogram) {
    ++reprogrammed_pages_;
    reprogrammed_subpages_ += src.count;
    if (tl_reprogrammed_) tl_reprogrammed_->inc(src.count);
  } else if (opts_.use_reprogram) {
    fallback_subpages_ += src.count;
    if (tl_fallback_) tl_fallback_->inc(src.count);
  }
  count_evicted(src.count);
}

}  // namespace ppssd::cache
