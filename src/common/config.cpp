#include "common/config.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace ppssd {

SsdConfig SsdConfig::paper() { return SsdConfig{}; }

SsdConfig SsdConfig::scaled(std::uint32_t total_blocks) {
  SsdConfig cfg;
  cfg.geometry.total_blocks = total_blocks;
  // Preserve the paper's 512 blocks per plane so the per-plane cache
  // structure (26 SLC-mode blocks per plane at 5%) matches paper scale.
  // Shed intra-chip parallelism (dies, planes) before chips/channels: the
  // paper's differentiation depends on its 32 independent chips, so a
  // scaled device keeps as many chips as the block budget allows.
  const std::uint32_t target_planes = std::max(1u, total_blocks / 512);
  while (cfg.geometry.planes() > target_planes) {
    if (cfg.geometry.dies_per_chip > 1) {
      cfg.geometry.dies_per_chip /= 2;
    } else if (cfg.geometry.planes_per_die > 1) {
      cfg.geometry.planes_per_die /= 2;
    } else if (cfg.geometry.chips_per_channel > 1) {
      cfg.geometry.chips_per_channel /= 2;
    } else if (cfg.geometry.channels > 1) {
      cfg.geometry.channels /= 2;
    } else {
      break;
    }
  }
  return cfg;
}

std::uint32_t SsdConfig::slc_block_count() const {
  return static_cast<std::uint32_t>(geometry.total_blocks * cache.slc_ratio);
}

std::string SsdConfig::validate() const {
  std::ostringstream err;
  const auto& g = geometry;
  if (g.channels == 0 || g.chips_per_channel == 0 || g.dies_per_chip == 0 ||
      g.planes_per_die == 0) {
    err << "geometry dimensions must be nonzero; ";
  }
  if (g.total_blocks == 0 || g.planes() == 0 ||
      g.total_blocks % g.planes() != 0) {
    err << "total_blocks (" << g.total_blocks
        << ") must be a positive multiple of plane count (" << g.planes()
        << "); ";
  }
  if (g.page_bytes == 0 || g.subpage_bytes == 0 ||
      g.page_bytes % g.subpage_bytes != 0) {
    err << "page_bytes must be a positive multiple of subpage_bytes; ";
  }
  if (g.pages_per_slc_block == 0 || g.pages_per_mlc_block == 0) {
    err << "pages per block must be nonzero; ";
  } else if (g.subpage_bytes != 0) {
    // The flat page row takes a 32-bit page index (bounded here with
    // every block at the larger page count) and the device map a 32-bit
    // slot code.
    const std::uint64_t pages =
        std::uint64_t{g.total_blocks} *
        std::max(g.pages_per_slc_block, g.pages_per_mlc_block);
    if (pages > std::numeric_limits<std::uint32_t>::max()) {
      err << "device has more pages (" << pages
          << ") than a 32-bit page index; ";
    }
    const std::uint32_t low_bits = g.slot_page_bits() + g.slot_subpage_bits();
    if (low_bits >= 32 || (std::uint64_t{g.total_blocks} << low_bits) >
                              std::numeric_limits<std::uint32_t>::max()) {
      err << "total_blocks (" << g.total_blocks
          << ") does not fit a 32-bit slot code beside " << low_bits
          << " page and subpage bits; ";
    }
  }
  if (cache.slc_ratio <= 0.0 || cache.slc_ratio >= 1.0) {
    err << "slc_ratio must be in (0,1); ";
  }
  if (cache.gc_threshold <= 0.0 || cache.gc_threshold >= 1.0) {
    err << "gc_threshold must be in (0,1); ";
  }
  if (cache.max_partial_programs == 0) {
    err << "max_partial_programs must be >= 1; ";
  }
  if (slc_block_count() < 8) {
    err << "slc region too small (<8 blocks): enlarge total_blocks or "
           "slc_ratio; ";
  }
  if (cache.monitor_ratio + cache.hot_ratio >= 1.0) {
    err << "monitor_ratio + hot_ratio must leave room for Work blocks; ";
  }
  if (ecc.min_decode > ecc.max_decode) {
    err << "ECC min_decode must not exceed max_decode; ";
  }
  if (ecc.t_per_codeword == 0) {
    err << "ECC t_per_codeword must be >= 1; ";
  }
  if (ber.mlc_anchor_ber <= 0.0 || ber.mlc_anchor_ber >= 1.0) {
    err << "mlc_anchor_ber must be in (0,1); ";
  }
  if (ber.anchor_pe == 0) {
    err << "anchor_pe must be nonzero; ";
  }
  return err.str();
}

}  // namespace ppssd
