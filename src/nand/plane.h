// Plane bookkeeping: block ranges and per-plane counters.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace ppssd::nand {

/// A plane is the unit of block allocation striping. It records aggregate
/// activity counters used by the wear and report modules.
class Plane {
 public:
  Plane(std::uint32_t id, BlockId first_block, std::uint32_t block_count,
        std::uint32_t chip, std::uint32_t channel)
      : id_(id),
        first_block_(first_block),
        block_count_(block_count),
        chip_(chip),
        channel_(channel) {}

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] BlockId first_block() const { return first_block_; }
  [[nodiscard]] std::uint32_t block_count() const { return block_count_; }
  [[nodiscard]] std::uint32_t chip() const { return chip_; }
  [[nodiscard]] std::uint32_t channel() const { return channel_; }

  void count_program(std::uint64_t n = 1) { programs_ += n; }
  void count_read() { ++reads_; }
  void count_erase() { ++erases_; }

  [[nodiscard]] std::uint64_t programs() const { return programs_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t erases() const { return erases_; }

  /// Warm-start restore: overwrite the activity counters wholesale.
  void restore_counters(std::uint64_t programs, std::uint64_t reads,
                        std::uint64_t erases) {
    programs_ = programs;
    reads_ = reads;
    erases_ = erases;
  }

 private:
  std::uint32_t id_;
  BlockId first_block_;
  std::uint32_t block_count_;
  std::uint32_t chip_;
  std::uint32_t channel_;
  std::uint64_t programs_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t erases_ = 0;
};

}  // namespace ppssd::nand
