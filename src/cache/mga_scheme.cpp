#include "cache/mga_scheme.h"


#include "cache/registry.h"
#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar mga_registrar(SchemeInfo{
    "MGA",
    "mapping-granularity-adaptive aggregation into shared SLC pages",
    /*order=*/1,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      PPSSD_CHECK_MSG(opts.empty(), "MGA scheme takes no options");
      return std::make_unique<MgaScheme>(cfg);
    },
    [](const ftl::MappingFootprint& fp) { return fp.mga(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void mga_scheme_link() {}
}  // namespace detail

MgaScheme::MgaScheme(const SsdConfig& cfg)
    : Scheme(cfg), second_level_(array_.geometry()) {
  open_pages_.assign(array_.geometry().planes(), OpenPage{});
}

void MgaScheme::inspect(telemetry::introspect::StateSink& sink) const {
  Scheme::inspect(sink);
  sink.value("second_level_entries", second_level_.live_entries());
  sink.value("second_level_capacity", second_level_.capacity());
  sink.value("open_aggregation_pages", open_page_count());
}

void MgaScheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                            std::vector<PhysOp>& ops) {
  // Small writes of different requests share the planes' open pages.
  std::uint32_t i = 0;
  while (i < count) {
    const std::uint32_t wrote =
        append_to_open_page(lsn + i, count - i, now, ops);
    if (wrote == 0) {
      // SLC region exhausted: write the remainder through to MLC.
      direct_mlc_write(lsn + i, count - i, now, ops);
      return;
    }
    // The second-level table maps each aggregated slot back to its LSN.
    for (std::uint32_t k = 0; k < wrote; ++k, ++i) {
      second_level_.set(array_.geometry(), map_.lookup(lsn + i), lsn + i);
    }
  }
}

void MgaScheme::on_slc_block_erased(BlockId block) {
  second_level_.clear_block(array_.geometry(), block);
}

void MgaScheme::on_slc_slot_invalidated(const PhysicalAddress& addr) {
  second_level_.clear(array_.geometry(), addr);
}

void MgaScheme::save_scheme_state(io::StateSink& sink) const {
  second_level_.save(sink);
  save_open_pages(sink);
}

void MgaScheme::restore_scheme_state(io::StateSource& src) {
  second_level_.restore(src);
  restore_open_pages(src);
}

}  // namespace ppssd::cache
