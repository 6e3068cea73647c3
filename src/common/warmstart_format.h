// Warm-start checkpoint container format (DESIGN.md §14).
//
// A checkpoint file is one PPSSDWRM container:
//
//   magic(8) container_version(u32)
//   key(str)                      — the full experiment cache key
//   scheme(str)                   — scheme name, for inspection tools
//   geometry(8 × u32)             — total_blocks, planes, subpages/page,
//                                   SLC blocks/plane, SLC pages/block,
//                                   MLC pages/block, SLC GC threshold,
//                                   MLC GC threshold
//   payload_size(u64) payload_checksum(u64)
//   payload                       — Ssd::save() byte stream
//
// The checksum (FNV-1a over the payload) is validated *before* any layer
// restore runs, so the layer restores may assume integrity and hard-check
// shape; everything the container check rejects is treated as a cache
// miss, never an abort. This header is shared by the writer
// (core/warmstart) and the read-only snapshot adapter
// (telemetry/introspect/warmstart_reader), which parses the leading
// FlashArray section of the payload — see FlashArray::save() for that
// layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "common/state_io.h"

namespace ppssd::io::warmstart {

inline constexpr char kMagic[9] = "PPSSDWRM";
/// Container version. 2: MLC block records carry no age histogram.
/// 3: one 8-byte (slot code, version) device-map entry per LSN and no
/// separate version row; write-time and disturb-snapshot rows cover
/// SLC-mode slots only. 4: the array and map rows as they stand in
/// memory — 4-byte slot records (no version), 2-byte page entries, u8
/// SLC neighbour snapshots, and 4-byte map entries whose top bits hold
/// the version, followed by the sorted version overflow table.
inline constexpr std::uint32_t kVersion = 4;

struct Header {
  std::string key;
  std::string scheme;
  std::uint32_t total_blocks = 0;
  std::uint32_t planes = 0;
  std::uint32_t subpages_per_page = 0;
  std::uint32_t slc_blocks_per_plane = 0;
  std::uint32_t slc_pages_per_block = 0;
  std::uint32_t mlc_pages_per_block = 0;
  std::uint32_t slc_gc_threshold = 0;
  std::uint32_t mlc_gc_threshold = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_checksum = 0;
};

/// FNV-1a, word-at-a-time variant: one xor+multiply per 8-byte word
/// (byte-wise tail). ~8x the byte-wise throughput, which matters — the
/// checksum runs over the whole multi-MB payload on every warm restore.
/// Single-word (hence single-bit) corruptions are still detected
/// deterministically: each step h' = (h ^ w) * prime is a bijection in
/// both operands, so two equal-length inputs differing in any word hash
/// differently.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 1099511628211ull;
  }
  for (; i < n; ++i) {
    h = (h ^ data[i]) * 1099511628211ull;
  }
  return h;
}

inline void write_header(StateSink& sink, const Header& h) {
  for (std::size_t i = 0; i < 8; ++i) {
    sink.u8(static_cast<std::uint8_t>(kMagic[i]));
  }
  sink.u32(kVersion);
  sink.str(h.key);
  sink.str(h.scheme);
  sink.u32(h.total_blocks);
  sink.u32(h.planes);
  sink.u32(h.subpages_per_page);
  sink.u32(h.slc_blocks_per_plane);
  sink.u32(h.slc_pages_per_block);
  sink.u32(h.mlc_pages_per_block);
  sink.u32(h.slc_gc_threshold);
  sink.u32(h.mlc_gc_threshold);
  sink.u64(h.payload_size);
  sink.u64(h.payload_checksum);
}

/// Read the container header; false on bad magic, wrong container
/// version, or truncation (`src` may be mid-stream afterwards — callers
/// treat false as a cache miss and stop).
inline bool read_header(StateSource& src, Header* out) {
  for (std::size_t i = 0; i < 8; ++i) {
    if (src.u8() != static_cast<std::uint8_t>(kMagic[i])) return false;
  }
  if (src.u32() != kVersion) return false;
  out->key = src.str();
  out->scheme = src.str();
  out->total_blocks = src.u32();
  out->planes = src.u32();
  out->subpages_per_page = src.u32();
  out->slc_blocks_per_plane = src.u32();
  out->slc_pages_per_block = src.u32();
  out->mlc_pages_per_block = src.u32();
  out->slc_gc_threshold = src.u32();
  out->mlc_gc_threshold = src.u32();
  out->payload_size = src.u64();
  out->payload_checksum = src.u64();
  return src.ok();
}

}  // namespace ppssd::io::warmstart
