// Row allocator (common/row_alloc.h): big rows are 2 MiB-aligned when
// mapped, and rows of every size — big, small and empty — round-trip
// through the checkpoint sink and source.
#include "common/row_alloc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/state_io.h"

namespace ppssd {
namespace {

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugeRowBytes == 0;
}

TEST(RowAlloc, BigRowsAreHugePageAligned) {
  if (!huge_rows_mapped()) GTEST_SKIP() << "rows use operator new here";
  // Exactly the threshold, an odd size above it, and a multi-page row.
  for (const std::size_t bytes :
       {kHugeRowBytes, kHugeRowBytes + 12'345, 5 * kHugeRowBytes + 4}) {
    Row<std::uint8_t> row(bytes, 0);
    EXPECT_TRUE(huge_aligned(row.data())) << bytes << " bytes";
    row.back() = 7;  // the unadvised tail is mapped too
    EXPECT_EQ(row.back(), 7);
  }
  Row<std::uint32_t> words(kHugeRowBytes / sizeof(std::uint32_t));
  EXPECT_TRUE(huge_aligned(words.data()));
}

TEST(RowAlloc, RowsStartZeroedAndGrow) {
  Row<std::uint32_t> row(kHugeRowBytes / sizeof(std::uint32_t) - 1);
  for (const std::uint32_t v : row) ASSERT_EQ(v, 0u);
  // Growing across the threshold moves the row from operator new to a
  // mapping; the contents move with it.
  std::iota(row.begin(), row.end(), 0u);
  row.resize(row.size() * 3, 9u);
  for (std::size_t i = 0; i < row.size() / 3; ++i) ASSERT_EQ(row[i], i);
  EXPECT_EQ(row.back(), 9u);
}

template <typename T>
void expect_round_trip(const Row<T>& row) {
  io::StateSink sink;
  sink.vec(row);
  sink.vec(row);
  const std::vector<std::uint8_t> buf = sink.take();
  io::StateSource src(buf);
  const Row<T> copy = src.vec<T, RowAllocator<T>>();
  Row<T> into(row.size());
  EXPECT_TRUE(src.vec_into(into));
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(copy, row);
  EXPECT_EQ(into, row);
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
