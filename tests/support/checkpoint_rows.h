// Test-only map of a checkpoint's FlashArray section (FlashArray::save):
// where each row's first element sits in the stream, so a test can alter
// one field and feed the stream back to restore.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace ppssd::nand {

/// Byte offsets of each FlashArray checkpoint row's first element. The
/// rows are the array's own: a 4-byte SlotRecord per slot (owner in the
/// low 30 bits, state in the top 2), the SLC-only rows, and a 2-byte Page
/// per page (byte 0 the neighbour count, byte 1 the program count in its
/// low 7 bits and the reprogrammed mark in bit 7).
struct ArrayRowOffsets {
  std::size_t slots = 0;                 // u32 record per slot
  std::size_t slc_wtime = 0;             // u32 per SLC-mode slot
  std::size_t slc_programs_before = 0;   // u8 per SLC-mode slot
  std::size_t slc_neighbors_before = 0;  // u8 per SLC-mode slot
  std::size_t pages = 0;                 // 2 bytes per page

  /// Byte of page `i`'s neighbour count and of its program count.
  [[nodiscard]] std::size_t page_neighbors(std::size_t i) const {
    return pages + 2 * i;
  }
  [[nodiscard]] std::size_t page_ops(std::size_t i) const {
    return pages + 2 * i + 1;
  }
};

/// Walk the row counts of the FlashArray section that starts at byte `at`.
inline ArrayRowOffsets locate_array_rows(const std::vector<std::uint8_t>& bytes,
                                         std::size_t at = 0) {
  at += 4 + 4 + 8;  // spp, block count, slot count
  const auto row = [&](std::size_t element_bytes) {
    std::uint64_t n = 0;
    PPSSD_CHECK(at + sizeof n <= bytes.size());
    std::memcpy(&n, bytes.data() + at, sizeof n);
    const std::size_t first = at + sizeof n;
    at = first + static_cast<std::size_t>(n) * element_bytes;
    PPSSD_CHECK(at <= bytes.size());
    return first;
  };
  ArrayRowOffsets o;
  o.slots = row(4);
  o.slc_wtime = row(4);
  o.slc_programs_before = row(1);
  o.slc_neighbors_before = row(1);
  o.pages = row(2);
  return o;
}

/// Overwrite element `i` of the row of T-sized elements starting at `row`.
template <typename T>
void poke(std::vector<std::uint8_t>& bytes, std::size_t row, std::size_t i,
          T value) {
  std::memcpy(bytes.data() + row + i * sizeof(T), &value, sizeof(T));
}

}  // namespace ppssd::nand
