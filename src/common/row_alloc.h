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
// Smaller rows use plain operator new. So does every big row under
// AddressSanitizer (it only checks heap memory it allocated), and a big
// row whose mmap fails; such a row is placed off a 2 MiB boundary, so
// release tells it from a mapped row by alignment alone.
//
// Rows are born zero: a mapped row is zeroed by the kernel, and the
// allocator zeroes a row that comes from operator new. Sizing a row
// therefore writes nothing; its pages fault in when first written (by
// the MLC prefill, for most of the slot and page rows). A row's length is
// fixed at construction, so no element is ever value-initialised over
// memory that once held data.
#pragma once

#include <cstddef>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace ppssd {

/// Rows at least this many bytes are mapped 2 MiB-aligned on huge pages.
inline constexpr std::size_t kHugeRowBytes = std::size_t{2} << 20;

/// True when big rows are mapped (false in AddressSanitizer builds).
[[nodiscard]] bool huge_rows_mapped();

/// Zeroed raw row storage; see the file comment. `bytes` must be passed
/// back unchanged to release_row().
[[nodiscard]] void* allocate_row(std::size_t bytes);
/// The heap half of allocate_row(): what it returns for a small row, and
/// for a big one when rows are not mapped or mmap fails (then placed off
/// a 2 MiB boundary). Zeroed; release with release_row(). Exposed so
/// tests reach the fallback without making mmap fail.
[[nodiscard]] void* allocate_heap_row(std::size_t bytes);
void release_row(void* row, std::size_t bytes) noexcept;

/// A fixed-length flat row of device state, born zero. `T` must be
/// trivially copyable and its all-zero bytes must be its default value
/// (true of every device row type: integers, SlotRecord, Page,
/// AgeHistogram); a row of another starting value is filled by its
/// owner's constructor.
template <typename T>
class Row {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  Row() = default;
  /// `n` zeroed elements.
  explicit Row(std::size_t n) : size_(n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    if (n != 0) data_ = static_cast<T*>(allocate_row(n * sizeof(T)));
  }
  Row(Row&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  Row& operator=(Row&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~Row() {
    if (data_ != nullptr) release_row(data_, size_ * sizeof(T));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ppssd
