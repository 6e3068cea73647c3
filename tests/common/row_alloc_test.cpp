// Row allocator (common/row_alloc.h): big rows are 2 MiB-aligned when
// mapped, every allocation path returns zeroed storage, and rows of every
// size — big, small and empty — round-trip through the checkpoint sink
// and source.
#include "common/row_alloc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/state_io.h"

namespace ppssd {
namespace {

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugeRowBytes == 0;
}

bool all_zero(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  return std::all_of(b, b + bytes, [](std::uint8_t v) { return v == 0; });
}

TEST(RowAlloc, BigRowsAreHugePageAligned) {
  if (!huge_rows_mapped()) GTEST_SKIP() << "rows use operator new here";
  // Exactly the threshold, an odd size above it, and a multi-page row.
  for (const std::size_t bytes :
       {kHugeRowBytes, kHugeRowBytes + 12'345, 5 * kHugeRowBytes + 4}) {
    Row<std::uint8_t> row(bytes);
    EXPECT_TRUE(huge_aligned(row.data())) << bytes << " bytes";
    row[bytes - 1] = 7;  // the unadvised tail is mapped too
    EXPECT_EQ(row[bytes - 1], 7);
  }
  Row<std::uint32_t> words(kHugeRowBytes / sizeof(std::uint32_t));
  EXPECT_TRUE(huge_aligned(words.data()));
}

// Each path hands back storage that held data just before: a heap row
// released dirty, then one of the same size allocated again (malloc
// usually returns the same chunk; mapped rows come zeroed from the
// kernel either way).
TEST(RowAlloc, EveryAllocationPathReturnsZeroedStorage) {
  for (const std::size_t bytes :
       {std::size_t{1000}, kHugeRowBytes - 1, kHugeRowBytes,
        3 * kHugeRowBytes + 12'345}) {
    // The heap path: every small row, and a big row under
    // AddressSanitizer or when mmap fails (the shifted fallback).
    void* dirty = allocate_heap_row(bytes);
    std::memset(dirty, 0xA5, bytes);
    release_row(dirty, bytes);
    void* heap = allocate_heap_row(bytes);
    EXPECT_TRUE(all_zero(heap, bytes)) << bytes << " bytes, heap";
    if (bytes >= kHugeRowBytes) {
      EXPECT_FALSE(huge_aligned(heap)) << bytes << " bytes, heap";
    }
    release_row(heap, bytes);

    // The path allocate_row takes here: mapped for a big row unless
    // under AddressSanitizer, the heap otherwise.
    void* used = allocate_row(bytes);
    std::memset(used, 0x5A, bytes);
    release_row(used, bytes);
    void* row = allocate_row(bytes);
    EXPECT_TRUE(all_zero(row, bytes)) << bytes << " bytes";
    // release_row tells a mapped big row from a heap one by its 2 MiB
    // alignment, so only big rows have a required alignment. A small row
    // is freed by size, and some heaps (ThreadSanitizer's) do hand out
    // 2 MiB-aligned small blocks.
    if (bytes >= kHugeRowBytes) {
      EXPECT_EQ(huge_aligned(row), huge_rows_mapped()) << bytes << " bytes";
    }
    release_row(row, bytes);
  }
  // And through Row, of an element type wider than a byte.
  Row<std::uint32_t> words(kHugeRowBytes / sizeof(std::uint32_t) - 1);
  EXPECT_TRUE(all_zero(words.data(), words.size() * sizeof(std::uint32_t)));
}

TEST(RowAlloc, MovedRowKeepsItsStorage) {
  Row<std::uint32_t> row(1000);
  std::iota(row.begin(), row.end(), 0u);
  const std::uint32_t* const data = row.data();
  Row<std::uint32_t> moved(std::move(row));
  EXPECT_EQ(moved.data(), data);
  EXPECT_EQ(moved.size(), 1000u);
  EXPECT_TRUE(row.empty());  // NOLINT(bugprone-use-after-move)
  Row<std::uint32_t> assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), data);
  EXPECT_EQ(assigned[999], 999u);
}

template <typename T>
void expect_round_trip(const Row<T>& row) {
  io::StateSink sink;
  sink.vec(row);
  const std::vector<std::uint8_t> buf = sink.take();
  io::StateSource src(buf);
  Row<T> into(row.size());
  EXPECT_TRUE(src.vec_into(into));
  EXPECT_TRUE(src.exhausted());
  EXPECT_TRUE(std::equal(into.begin(), into.end(), row.begin(), row.end()));
}

TEST(RowAlloc, BigSmallAndEmptyRowsRoundTripThroughState) {
  Row<std::uint16_t> big(kHugeRowBytes / 2 + 3);
  std::iota(big.begin(), big.end(), std::uint16_t{1});
  expect_round_trip(big);

  Row<std::uint32_t> small(1000);
  std::iota(small.begin(), small.end(), 5u);
  expect_round_trip(small);

  expect_round_trip(Row<std::uint64_t>{});
}

TEST(RowAlloc, EmptyPlainVectorsRoundTrip) {
  io::StateSink sink;
  sink.vec(std::vector<std::uint32_t>{});
  sink.vec(std::vector<std::uint8_t>{});
  const std::vector<std::uint8_t> buf = sink.take();
  io::StateSource src(buf);
  EXPECT_TRUE(src.vec<std::uint32_t>().empty());
  std::vector<std::uint8_t> into;
  EXPECT_TRUE(src.vec_into(into));
  EXPECT_TRUE(src.exhausted());
}

}  // namespace
}  // namespace ppssd
