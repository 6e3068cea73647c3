#include "trace/decode_ahead.h"

#include <algorithm>

namespace ppssd::trace {

DecodeAhead::DecodeAhead(TraceSource& src, std::uint64_t max_records)
    : slots_(std::make_unique<Slot[]>(kSlots)),
      worker_([this, &src, max_records](std::stop_token stop) {
        produce(stop, src, max_records);
      }) {}

DecodeAhead::~DecodeAhead() {
  // A worker blocked on a full ring waits for released_ to change: any
  // change wakes it, and it then sees the stop request and returns.
  worker_.request_stop();
  released_.fetch_add(1, std::memory_order_release);
  released_.notify_one();
  worker_.join();
}

void DecodeAhead::produce(const std::stop_token& stop, TraceSource& src,
                          std::uint64_t max_records) {
  std::uint64_t left = max_records == 0 ? ~std::uint64_t{0} : max_records;
  for (std::uint32_t head = 0;; ++head) {
    std::uint32_t released = released_.load(std::memory_order_acquire);
    while (head - released == kSlots) {
      released_.wait(released, std::memory_order_acquire);
      released = released_.load(std::memory_order_acquire);
    }
    if (stop.stop_requested()) return;
    Slot& slot = slots_[head % kSlots];
    const auto want =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, left));
    std::size_t got = 0;
    if (want != 0) {
      try {
        got = src.next_batch(std::span(slot.records.data(), want));
      } catch (...) {
        error_ = std::current_exception();
        got = 0;
      }
    }
    slot.count = got;
    left -= got;
    produced_.store(head + 1, std::memory_order_release);
    produced_.notify_one();
    if (got == 0) return;
  }
}

std::span<const TraceRecord> DecodeAhead::next() {
  if (ended_) return {};
  // The caller is done with every slot taken so far; hand them back half
  // a ring at a time.
  if (taken_ != 0 && taken_ % kHalf == 0) {
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
  if (slot.count == 0) {
    ended_ = true;
    if (error_) std::rethrow_exception(error_);
    return {};
  }
  return {slot.records.data(), slot.count};
}

}  // namespace ppssd::trace
