#include "telemetry/introspect/warmstart_reader.h"

#include <cstdint>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/state_io.h"
#include "common/warmstart_format.h"

namespace ppssd::telemetry::introspect {

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  return static_cast<bool>(in);
}

}  // namespace

bool is_warmstart_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in &&
         std::string_view(magic, sizeof magic) == io::warmstart::kMagic;
}

bool load_warmstart_as_snapshot(const std::string& path, SnapshotFile* out,
                                std::string* error) {
  std::vector<std::uint8_t> bytes;
  if (!read_file(path, &bytes)) return fail(error, "cannot read file");

  io::StateSource src(bytes);
  io::warmstart::Header h;
  if (!io::warmstart::read_header(src, &h)) {
    return fail(error, "not a warm-start checkpoint (bad magic, container "
                       "version, or truncated header)");
  }
  const std::size_t header_end = src.pos();
  if (bytes.size() - header_end != h.payload_size) {
    return fail(error, "payload size disagrees with the container header");
  }
  if (io::warmstart::fnv1a(bytes.data() + header_end, h.payload_size) !=
      h.payload_checksum) {
    return fail(error, "payload checksum mismatch");
  }
  if (h.planes == 0 || h.total_blocks % h.planes != 0) {
    return fail(error, "degenerate geometry in container header");
  }
  const std::uint32_t blocks_per_plane = h.total_blocks / h.planes;

  // The payload is the Ssd::save() stream; its leading sections are
  // FlashArray::save() then BlockManager::save() (keep the parses below
  // in sync with those writers — the shared container version gates
  // incompatible layout changes).
  io::StateSource p(bytes.data() + header_end,
                    static_cast<std::size_t>(h.payload_size));

  // ---- FlashArray section ----------------------------------------------
  const std::uint32_t spp = p.u32();
  const std::uint32_t block_count = p.u32();
  const std::uint64_t slot_count = p.u64();
  if (!p.ok() || spp != h.subpages_per_page || block_count != h.total_blocks) {
    return fail(error, "array shape disagrees with the container header");
  }
  // The rows as FlashArray keeps them in memory: a 4-byte slot record
  // (owner in the low 30 bits, state in the top 2), the SLC-only u32
  // write-time and u8 snapshot rows, and a 2-byte page entry (byte 0 the
  // neighbour count, byte 1 the program count in its low 7 bits and the
  // reprogrammed mark in bit 7).
  const std::uint64_t slots = p.u64();
  (void)p.bytes(slots * 4);      // slot records
  (void)p.vec<std::uint32_t>();  // slc_wtime
  (void)p.vec<std::uint8_t>();   // slc_programs_before
  (void)p.vec<std::uint8_t>();   // slc_neighbors_before
  if (!p.ok() || slots != slot_count) {
    return fail(error, "subpage-state rows truncated or missized");
  }
  const std::vector<std::uint16_t> page_entries = p.vec<std::uint16_t>();
  if (!p.ok()) return fail(error, "page rows truncated");

  SnapshotStream stream;
  stream.info.scheme = h.scheme;
  stream.info.total_blocks = h.total_blocks;
  stream.info.planes = h.planes;
  stream.info.subpages_per_page = h.subpages_per_page;
  stream.info.slc_blocks_per_plane = h.slc_blocks_per_plane;
  stream.info.slc_gc_threshold = h.slc_gc_threshold;
  stream.info.mlc_gc_threshold = h.mlc_gc_threshold;

  SnapshotFrame frame;  // time 0: checkpoints are cut after reset_timing()
  frame.blocks.reserve(h.total_blocks);
  std::uint64_t page_cursor = 0;  // blocks are laid out in order
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const bool slc = b % blocks_per_plane < h.slc_blocks_per_plane;
    const std::uint32_t pages =
        slc ? h.slc_pages_per_block : h.mlc_pages_per_block;

    BlockState bs;
    bs.level = p.u8();
    bs.erase_count = p.u32();
    (void)p.u64();  // last_erase_time
    bs.mode = slc ? 0 : 1;
    bs.pages = static_cast<std::uint16_t>(pages);
    const std::uint32_t frontier = p.u32();
    bs.write_frontier = static_cast<std::uint16_t>(frontier);
    bs.valid_subpages = p.u32();
    bs.invalid_subpages = p.u32();
    (void)p.u64();  // sum_write_time_ms
    if (slc) {
      // Skip the SLC block's sparse age histogram: base_ms, then n
      // (bucket, count, sum) entries. MLC records carry none.
      (void)p.u32();
      const std::uint32_t hist_n = p.u32();
      for (std::uint32_t i = 0; p.ok() && i < hist_n; ++i) {
        (void)p.u16();
        (void)p.u32();
        (void)p.u64();
      }
    }
    if (!p.ok() || frontier > pages) {
      return fail(error, "block record truncated or out of shape");
    }
    if (page_cursor + pages > page_entries.size()) {
      return fail(error, "block pages run past the page rows");
    }
    // Same walk as Snapshotter::snapshot_now: sticky marks count only
    // below the frontier (an erase clears the pages but the mark rows
    // are rewritten lazily).
    for (std::uint32_t pg = 0; pg < frontier; ++pg) {
      bs.reprogrammed_pages += (page_entries[page_cursor + pg] >> 15) & 1u;
    }
    page_cursor += pages;
    frame.blocks.push_back(bs);
  }
  if (page_cursor != page_entries.size()) {
    return fail(error, "page rows extend past the last block");
  }
  for (std::uint32_t pl = 0; pl < h.planes; ++pl) {
    (void)p.u64();  // programs
    (void)p.u64();  // reads
    (void)p.u64();  // erases
  }
  for (int i = 0; i < 10; ++i) {
    (void)p.u64();  // ArrayCounters: ten u64 totals (nand/flash_array.h)
  }
  if (!p.ok()) return fail(error, "array section truncated");

  // ---- BlockManager section --------------------------------------------
  const std::vector<std::uint8_t> bm_state = p.vec<std::uint8_t>();
  const std::uint64_t bm_planes = p.u64();
  if (!p.ok() || bm_state.size() != h.total_blocks ||
      bm_planes != h.planes) {
    return fail(error, "block-manager shape disagrees with the header");
  }
  frame.planes.reserve(h.planes);
  for (std::uint32_t pl = 0; pl < h.planes; ++pl) {
    // FreeEntry is two u32s; reading the heap vectors as u64 elements
    // consumes the identical bytes and the lengths are the free counts.
    const auto slc_free = p.vec<std::uint64_t>();
    const auto mlc_free = p.vec<std::uint64_t>();
    for (int i = 0; i < 8; ++i) {
      (void)p.u32();  // open[4] + level_counts[4]
    }
    PlaneState ps;
    ps.free_slc = static_cast<std::uint32_t>(slc_free.size());
    ps.free_mlc = static_cast<std::uint32_t>(mlc_free.size());
    ps.pressure_slc = ps.free_slc <= h.slc_gc_threshold ? 1 : 0;
    ps.pressure_mlc = ps.free_mlc <= h.mlc_gc_threshold ? 1 : 0;
    frame.planes.push_back(ps);
  }
  if (!p.ok()) return fail(error, "block-manager section truncated");
  // The rest of the payload (mapping table, scheme side-state, deferred
  // controller queue) is not rendered by any snapshot view; ignore it.

  stream.frames.push_back(std::move(frame));
  out->streams.clear();
  out->truncated_bytes = 0;
  out->streams.push_back(std::move(stream));
  return true;
}

}  // namespace ppssd::telemetry::introspect
