// Allocator for the simulator's big flat rows (DESIGN.md §10).
//
// The device state is a handful of long rows — the device map (one slot
// code per LSN), the block row, the page row and the subpage SoA rows —
// that the per-request paths index at random. On
// 4 KiB pages nearly every such access is a TLB miss, so every row of at
// least kHugeRowBytes is mapped on its own with mmap at a 2 MiB boundary
// and advised MADV_HUGEPAGE over its whole huge pages (the tail stays on
// 4 KiB pages, so a row never pins memory it does not use). Releasing a
// row unmaps it: the memory goes back to the kernel instead of into
// malloc's free lists, where a later small allocation could fault a whole
// THP-advised huge page in.
//
// Smaller rows use plain operator new. So does every row under
// AddressSanitizer (it only checks heap memory it allocated), and a big
// row whose mmap fails.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <vector>

namespace ppssd {

/// Rows at least this many bytes are mapped 2 MiB-aligned on huge pages.
inline constexpr std::size_t kHugeRowBytes = std::size_t{2} << 20;

/// True when big rows are mapped (false in AddressSanitizer builds).
[[nodiscard]] bool huge_rows_mapped();

/// Raw row storage; see the file comment. `bytes` must be passed back
/// unchanged to release_row().
[[nodiscard]] void* allocate_row(std::size_t bytes);
void release_row(void* row, std::size_t bytes) noexcept;

template <typename T>
struct RowAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  RowAllocator() = default;
  template <typename U>
  RowAllocator(const RowAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_row(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    release_row(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const RowAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// A flat row of device state.
template <typename T>
using Row = std::vector<T, RowAllocator<T>>;

}  // namespace ppssd
