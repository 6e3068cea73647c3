#include "telemetry/introspect/snapshotter.h"

#include <cstdio>

#include "cache/scheme.h"
#include "common/check.h"

namespace ppssd::telemetry::introspect {

Snapshotter::Snapshotter(const IntrospectOptions& opts)
    : opts_(opts), every_(opts.snapshot_every_ns) {
  if (opts_.flight_capacity > 0) {
    flight_ = std::make_unique<FlightRecorder>(opts_.flight_capacity);
  }
}

Snapshotter::~Snapshotter() {
  if (hook_installed_) {
    detail::set_check_failure_hook(nullptr, nullptr);
  }
}

bool Snapshotter::bind(const cache::Scheme& scheme) {
  scheme_ = &scheme;
  finished_ = false;
  next_due_ = every_;
  last_time_ = 0;

  bool ok = true;
  if (every_ > 0) {
    if (!writer_.is_open() && !writer_.open(opts_.snapshot_path)) {
      std::fprintf(stderr, "ppssd: cannot open snapshot file %s\n",
                   opts_.snapshot_path.c_str());
      every_ = 0;  // degrade to flight-only rather than crashing the run
      ok = false;
    } else {
      const nand::Geometry& geom = scheme.array().geometry();
      StreamInfo info;
      info.scheme = scheme.name();
      info.total_blocks = geom.total_blocks();
      info.planes = geom.planes();
      info.subpages_per_page = geom.subpages_per_page();
      info.slc_blocks_per_plane = geom.slc_blocks_per_plane();
      info.slc_gc_threshold = scheme.blocks().gc_threshold_blocks(CellMode::kSlc);
      info.mlc_gc_threshold = scheme.blocks().gc_threshold_blocks(CellMode::kMlc);
      writer_.begin_stream(info);
    }
  }

  detail::set_check_failure_hook(&Snapshotter::on_check_failure, this);
  hook_installed_ = true;
  return ok;
}

void Snapshotter::snapshot_now(SimTime now) {
  if (scheme_ == nullptr || !writer_.is_open()) return;
  const nand::FlashArray& array = scheme_->array();
  const nand::Geometry& geom = array.geometry();
  const ftl::BlockManager& bm = scheme_->blocks();

  blocks_.resize(geom.total_blocks());
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const nand::Block& blk = array.block(b);
    BlockState& bs = blocks_[b];
    bs.erase_count = blk.erase_count();
    bs.valid_subpages = blk.valid_subpages();
    bs.invalid_subpages = blk.invalid_subpages();
    bs.write_frontier = static_cast<std::uint16_t>(blk.write_frontier());
    bs.pages = static_cast<std::uint16_t>(blk.page_count());
    std::uint16_t reprogrammed = 0;
    for (PageId p = 0; p < blk.write_frontier(); ++p) {
      if (array.page(b, p).reprogrammed()) ++reprogrammed;
    }
    bs.reprogrammed_pages = reprogrammed;
    bs.mode = static_cast<std::uint8_t>(blk.mode());
    bs.level = static_cast<std::uint8_t>(blk.level());
  }

  planes_.resize(geom.planes());
  for (std::uint32_t p = 0; p < geom.planes(); ++p) {
    PlaneState& ps = planes_[p];
    ps.free_slc = bm.free_blocks(p, CellMode::kSlc);
    ps.free_mlc = bm.free_blocks(p, CellMode::kMlc);
    ps.pressure_slc = bm.needs_gc(p, CellMode::kSlc) ? 1 : 0;
    ps.pressure_mlc = bm.needs_gc(p, CellMode::kMlc) ? 1 : 0;
  }

  scheme_->inspect(writer_.sink());
  writer_.write_frame(now, blocks_, planes_);

  last_time_ = now;
  if (every_ > 0) next_due_ = now + every_;
}

void Snapshotter::finish(SimTime end) {
  if (finished_) return;
  finished_ = true;
  if (scheme_ != nullptr && writer_.is_open()) {
    snapshot_now(end);
    writer_.flush();
  }
  if (flight_ != nullptr && flight_->recorded() > 0) {
    if (!flight_->dump(opts_.flight_path)) {
      std::fprintf(stderr, "ppssd: cannot write flight dump %s\n",
                   opts_.flight_path.c_str());
    }
  }
  if (hook_installed_) {
    detail::set_check_failure_hook(nullptr, nullptr);
    hook_installed_ = false;
  }
  scheme_ = nullptr;
}

void Snapshotter::on_check_failure(void* ctx) {
  // Last-gasp path, called from a failing PPSSD_CHECK: do not walk
  // device state (the invariant just proved it inconsistent) — persist
  // what is already in memory. Per-frame flushes mean the stream on
  // disk holds every completed frame; only the flight ring needs
  // writing out.
  auto* self = static_cast<Snapshotter*>(ctx);
  if (self->flight_ != nullptr) {
    FlightEvent ev;
    ev.time = self->last_time_;
    ev.kind = FlightEventKind::kCheckFailure;
    self->flight_->record(ev);
    if (self->flight_->dump(self->opts_.flight_path)) {
      std::fprintf(stderr, "ppssd: flight recorder dumped to %s (%llu events)\n",
                   self->opts_.flight_path.c_str(),
                   static_cast<unsigned long long>(self->flight_->recorded()));
    }
  }
  self->writer_.flush();
}

}  // namespace ppssd::telemetry::introspect
