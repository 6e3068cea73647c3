#include "common/row_alloc.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#define PPSSD_ROW_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PPSSD_ROW_ASAN 1
#endif
#endif

namespace ppssd {

namespace {

#ifdef PPSSD_ROW_ASAN
constexpr bool kMapRows = false;
#else
constexpr bool kMapRows = true;
#endif

/// A big row that comes from operator new is shifted by kShift or
/// 2 * kShift bytes so that it never starts on a 2 MiB boundary: release
/// then tells it from a mapped row by alignment alone, and reads the
/// shift back from the byte just before the row.
constexpr std::size_t kShift = 64;

std::size_t os_page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

bool huge_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kHugeRowBytes == 0;
}

/// Anonymous memory, which the kernel hands out zeroed.
void* map_row(std::size_t bytes) {
  const std::size_t len = round_up(bytes, os_page_bytes());
  // Over-map by one huge page, then trim both ends to a 2 MiB boundary.
  const std::size_t span = len + kHugeRowBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  auto* base = static_cast<std::byte*>(raw);
  auto* row = reinterpret_cast<std::byte*>(
      round_up(reinterpret_cast<std::uintptr_t>(raw), kHugeRowBytes));
  const std::size_t head = static_cast<std::size_t>(row - base);
  if (head > 0) munmap(base, head);
  munmap(row + len, span - head - len);  // at least one OS page
  // Advice failure (THP disabled) is harmless: the row stays on 4 KiB
  // pages.
  const std::size_t whole = bytes / kHugeRowBytes * kHugeRowBytes;
  (void)madvise(row, whole, MADV_HUGEPAGE);
  return row;
}

void* new_shifted(std::size_t bytes) {
  auto* raw = static_cast<std::byte*>(::operator new(bytes + 2 * kShift));
  std::byte* row = raw + kShift;
  if (huge_aligned(row)) row += kShift;
  row[-1] = static_cast<std::byte>(row - raw);
  return row;
}

}  // namespace

bool huge_rows_mapped() { return kMapRows; }

void* allocate_row(std::size_t bytes) {
  if (kMapRows && bytes >= kHugeRowBytes) {
    if (void* row = map_row(bytes)) return row;
  }
  return allocate_heap_row(bytes);
}

void* allocate_heap_row(std::size_t bytes) {
  void* row =
      bytes < kHugeRowBytes ? ::operator new(bytes) : new_shifted(bytes);
  std::memset(row, 0, bytes);
  return row;
}

void release_row(void* row, std::size_t bytes) noexcept {
  if (bytes < kHugeRowBytes) {
    ::operator delete(row);
  } else if (huge_aligned(row)) {
    munmap(row, round_up(bytes, os_page_bytes()));
  } else {
    auto* p = static_cast<std::byte*>(row);
    ::operator delete(p - static_cast<std::size_t>(p[-1]));
  }
}

}  // namespace ppssd
