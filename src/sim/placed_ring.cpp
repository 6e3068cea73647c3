#include "sim/placed_ring.h"

namespace ppssd::sim {

PlacedRing::PlacedRing(bool lockstep)
    : batch_(lockstep ? 1 : kBatch),
      window_(lockstep ? 1 : kSlots),
      release_(lockstep ? 1 : kHalf),
      slots_(std::make_unique<Slot[]>(kSlots)) {
  for (std::uint32_t i = 0; i < kSlots; ++i) slots_[i].ops.reserve(kSlotOps);
}

bool PlacedRing::wait_for_room() {
  std::uint32_t released = released_.load(std::memory_order_acquire);
  while (head_ - released >= window_) {
    if (failed_.load(std::memory_order_acquire)) return false;
    released_.wait(released, std::memory_order_acquire);
    released = released_.load(std::memory_order_acquire);
  }
  return !failed_.load(std::memory_order_acquire);
}

std::vector<cache::PhysOp>& PlacedRing::ops() {
  Slot& slot = slots_[head_ % kSlots];
  if (fill_ == 0) {
    if (!wait_for_room()) std::rethrow_exception(error_);
    slot.ops.clear();
  }
  return slot.ops;
}

void PlacedRing::push(const Ssd::Placed& req) {
  slots_[head_ % kSlots].requests[fill_] = req;
  if (++fill_ == batch_) publish();
}

void PlacedRing::publish() {
  const bool last = fill_ == 0;
  slots_[head_ % kSlots].count = fill_;
  fill_ = 0;
  ++head_;
  produced_.store(head_, std::memory_order_release);
  // A pricer that caught up sleeps until half a ring is ready (or the
  // stream ends); one that is still pricing sees the new count anyway.
  if (last || head_ % release_ == 0) produced_.notify_one();
}

void PlacedRing::close() noexcept {
  if (fill_ != 0) publish();
  if (wait_for_room()) publish();  // the terminal slot: no requests
}

void PlacedRing::rethrow_failure() const {
  if (failed_.load(std::memory_order_acquire)) std::rethrow_exception(error_);
}

PlacedRing::Batch PlacedRing::next() {
  // The caller is done with every slot taken so far; hand them back half
  // a ring at a time.
  if (taken_ != 0 && taken_ % release_ == 0) {
    released_.store(taken_, std::memory_order_release);
    released_.notify_one();
  }
  if (visible_ == taken_) {
    visible_ = produced_.load(std::memory_order_acquire);
    while (visible_ == taken_) {
      produced_.wait(visible_, std::memory_order_acquire);
      visible_ = produced_.load(std::memory_order_acquire);
    }
  }
  const Slot& slot = slots_[taken_ % kSlots];
  ++taken_;
  if (slot.count == 0) return {};
  return {{slot.requests.data(), slot.count}, slot.ops};
}

void PlacedRing::fail(std::exception_ptr error) noexcept {
  error_ = std::move(error);
  failed_.store(true, std::memory_order_release);
  // A placer blocked on a full ring waits for released_ to change: any
  // change wakes it, and it then sees the failure.
  released_.fetch_add(1, std::memory_order_release);
  released_.notify_one();
}

}  // namespace ppssd::sim
