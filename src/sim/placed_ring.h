// Placed-request ring: the replay's placing thread hands batches of placed
// requests to the thread that prices them (DESIGN.md §10, "Price on a
// worker thread").
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "cache/scheme.h"
#include "sim/ssd.h"

namespace ppssd::sim {

/// Bounded single-producer/single-consumer ring of placed-request batches,
/// after trace::DecodeAhead. The placing thread calls Ssd::place into the
/// filling slot (ops(), then push()); the pricing thread takes the slots
/// in order with next(). A slot carries its requests and the op buffer
/// their op ranges index, so the ops move to the pricer without a copy.
///
/// Both sides block on C++20 atomic wait/notify and never spin in this
/// code. The pricer hands slots back kSlots/2 at a time, so a placer that
/// has filled the ring sleeps until half of it is free.
///
/// In lockstep mode a slot holds one request and the ring one slot: the
/// placer places request i + 1 only after the pricer has priced request i
/// and handed its slot back. Observers that both stages write to then see
/// the sequential interleaving.
class PlacedRing {
 public:
  /// Requests per slot (outside lockstep mode).
  static constexpr std::size_t kBatch = 256;
  /// Slots in the ring.
  static constexpr std::uint32_t kSlots = 16;
  /// Ops reserved per slot: four per request covers requests that run no
  /// GC. A GC pass grows its slot's buffer, which keeps the capacity.
  static constexpr std::size_t kSlotOps = 4 * kBatch;

  /// One slot's worth of placed requests, valid until the next next().
  struct Batch {
    std::span<const Ssd::Placed> requests;  // empty at the end
    std::span<const cache::PhysOp> ops;     // what their op ranges index
  };

  explicit PlacedRing(bool lockstep);
  PlacedRing(const PlacedRing&) = delete;
  PlacedRing& operator=(const PlacedRing&) = delete;

  // ---- Placing side --------------------------------------------------

  /// The op buffer the next request's ops are appended to. Starting a
  /// slot, waits while the ring is full; rethrows the pricer's exception
  /// if it failed.
  std::vector<cache::PhysOp>& ops();
  /// Append the request placed into ops() to its slot; a full slot (one
  /// request in lockstep mode) is published to the pricer.
  void push(const Ssd::Placed& req);
  /// Publish the partly filled slot, then the terminal one, waiting for
  /// room as needed. Returns at once if the pricer has failed. Call once.
  void close() noexcept;
  /// After the pricer has exited: rethrow its exception, if it failed.
  void rethrow_failure() const;

  // ---- Pricing side --------------------------------------------------

  /// The next batch in placement order; its requests are empty at the
  /// end. Hands the slots taken so far back to the placer, half a ring at
  /// a time (every slot in lockstep mode).
  Batch next();
  /// Record the pricer's exception and wake a waiting placer; the pricer
  /// takes no further batch.
  void fail(std::exception_ptr error) noexcept;

 private:
  static constexpr std::uint32_t kHalf = kSlots / 2;
  static_assert(kSlots % 2 == 0 && (kSlots & (kSlots - 1)) == 0,
                "slot counters wrap modulo 2^32");

  struct Slot {
    std::array<Ssd::Placed, kBatch> requests;
    std::vector<cache::PhysOp> ops;
    std::size_t count = 0;  // 0 ends the stream
  };

  /// Placing side: true once slot head_ may be filled; false if the
  /// pricer failed.
  bool wait_for_room();
  void publish();

  const std::uint32_t batch_;    // requests per slot
  const std::uint32_t window_;   // slots the placer may hold unreleased
  const std::uint32_t release_;  // the pricer hands slots back this many at a time
  std::unique_ptr<Slot[]> slots_;
  /// Set by the pricer before it raises failed_.
  std::exception_ptr error_;
  std::atomic<bool> failed_{false};
  /// Slots the placer has published; it notifies after each.
  alignas(64) std::atomic<std::uint32_t> produced_{0};
  /// Slots the pricer has handed back; it notifies after each hand-back.
  alignas(64) std::atomic<std::uint32_t> released_{0};
  // Placer-only state.
  alignas(64) std::uint32_t head_ = 0;  // the slot being filled
  std::uint32_t fill_ = 0;              // requests in it
  // Pricer-only state.
  alignas(64) std::uint32_t taken_ = 0;  // slots next() has returned
  std::uint32_t visible_ = 0;            // last produced_ it read
};

}  // namespace ppssd::sim
