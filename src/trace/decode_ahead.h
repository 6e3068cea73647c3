// Decode-ahead ring: a worker thread fills batches of trace records while
// the simulation thread consumes them (DESIGN.md §10, "Decode on a worker
// thread").
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <stop_token>
#include <thread>

#include "trace/record.h"

namespace ppssd::trace {

/// Bounded single-producer/single-consumer ring of decoded batches. The
/// constructor starts one std::jthread that calls src.next_batch into the
/// ring's slots; the owning thread takes the batches in order with
/// next(). The worker is the source's only caller while the ring lives,
/// and it asks for exactly the spans a plain batch loop would: kBatch
/// records at a time, clamped so that no record past `max_records` is
/// consumed. So the records and their order are the source's own.
///
/// Both sides block on C++20 atomic wait/notify and never spin. The
/// consumer hands slots back kSlots/2 at a time, so a worker that has
/// filled the ring sleeps until half of it is free, and the consumer makes
/// one wake-up call per kSlots/2 batches.
class DecodeAhead {
 public:
  /// Records per slot. Small enough that a slot stays cache-resident,
  /// large enough that the source's virtual dispatch and the ring's
  /// hand-off amortize to noise.
  static constexpr std::size_t kBatch = 256;
  /// Slots in the ring: 16 x 256 records of 32 bytes is 128 KiB.
  static constexpr std::uint32_t kSlots = 16;

  /// Starts decoding `src` on a worker thread. `max_records` caps the
  /// records taken from it (0 = to the end of the stream). Nothing else
  /// may touch `src` until the ring is destroyed.
  DecodeAhead(TraceSource& src, std::uint64_t max_records);
  /// Stops the worker and joins it, whether or not the stream was read
  /// to its end.
  ~DecodeAhead();
  DecodeAhead(const DecodeAhead&) = delete;
  DecodeAhead& operator=(const DecodeAhead&) = delete;

  /// The next batch in stream order, valid until the next call; empty at
  /// the end of the stream. An exception the source threw is rethrown
  /// here, in place of the batch it was decoding.
  std::span<const TraceRecord> next();

 private:
  static constexpr std::uint32_t kHalf = kSlots / 2;
  static_assert(kSlots % 2 == 0 && (kSlots & (kSlots - 1)) == 0,
                "slot counters wrap modulo 2^32");

  struct Slot {
    std::array<TraceRecord, kBatch> records;
    std::size_t count;  // 0 ends the stream
  };

  void produce(const std::stop_token& stop, TraceSource& src,
               std::uint64_t max_records);

  std::unique_ptr<Slot[]> slots_;
  /// Set by the worker before it publishes the terminal slot.
  std::exception_ptr error_;
  /// Slots the worker has published; it notifies after each.
  alignas(64) std::atomic<std::uint32_t> produced_{0};
  /// Slots the consumer has handed back, a multiple of kHalf except
  /// when the destructor bumps it to wake the worker.
  alignas(64) std::atomic<std::uint32_t> released_{0};
  // Consumer-only state.
  alignas(64) std::uint32_t taken_ = 0;  // slots next() has returned
  std::uint32_t visible_ = 0;            // last produced_ it read
  bool ended_ = false;
  /// Declared last: it starts after every other member is built.
  std::jthread worker_;
};

}  // namespace ppssd::trace
