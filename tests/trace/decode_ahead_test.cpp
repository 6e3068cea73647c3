// Decode-ahead ring: the batches a worker thread decodes must be the
// source's own records in the source's order, a cap must take exactly
// that many records from the source, a source's exception must reach the
// consumer in place of its batch, and destroying the ring at any point
// must stop and join the worker.
#include "trace/decode_ahead.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::trace {
namespace {

constexpr std::size_t kBatch = DecodeAhead::kBatch;
constexpr std::size_t kRing = DecodeAhead::kSlots * DecodeAhead::kBatch;

std::vector<TraceRecord> numbered(std::size_t n) {
  std::vector<TraceRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = TraceRecord{i * 10, i % 3 == 0 ? OpType::kRead : OpType::kWrite,
                         i * 4096, 4096};
  }
  return out;
}

/// Every record the ring delivers, with the size of each batch.
struct Drained {
  std::vector<TraceRecord> records;
  std::vector<std::size_t> batches;
};

Drained drain(DecodeAhead& ring) {
  Drained out;
  for (auto batch = ring.next(); !batch.empty(); batch = ring.next()) {
    out.records.insert(out.records.end(), batch.begin(), batch.end());
    out.batches.push_back(batch.size());
  }
  return out;
}

/// Counts records forever (an unbounded stream); optionally sleeps in
/// each batch so the consumer has to wait for the worker.
class EndlessSource final : public TraceSource {
 public:
  explicit EndlessSource(std::chrono::microseconds per_batch = {})
      : per_batch_(per_batch) {}
  bool next(TraceRecord& out) override {
    out = TraceRecord{produced_, OpType::kWrite, produced_ * 4096, 4096};
    ++produced_;
    return true;
  }
  std::size_t next_batch(std::span<TraceRecord> out) override {
    if (per_batch_.count() != 0) std::this_thread::sleep_for(per_batch_);
    for (TraceRecord& rec : out) next(rec);
    return out.size();
  }
  void reset() override { produced_ = 0; }

 private:
  std::chrono::microseconds per_batch_;
  std::uint64_t produced_ = 0;
};

/// Yields numbered records and throws from its `fail_call`-th next_batch
/// call (1-based), after writing part of that batch.
class ThrowingSource final : public TraceSource {
 public:
  explicit ThrowingSource(int fail_call) : fail_call_(fail_call) {}
  bool next(TraceRecord& out) override {
    out = TraceRecord{produced_, OpType::kWrite, produced_ * 4096, 4096};
    ++produced_;
    return true;
  }
  std::size_t next_batch(std::span<TraceRecord> out) override {
    if (++calls_ == fail_call_) {
      next(out[0]);
      throw std::runtime_error("bad record in batch " +
                               std::to_string(calls_));
    }
    for (TraceRecord& rec : out) next(rec);
    return out.size();
  }
  void reset() override { produced_ = 0; }

 private:
  int fail_call_;
  int calls_ = 0;
  std::uint64_t produced_ = 0;
};

TEST(DecodeAhead, DeliversEveryRecordInOrderInFullBatches) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kBatch - 1, kBatch, kBatch + 1,
        kRing - 1, kRing, kRing + 1, 3 * kRing + 77}) {
    SCOPED_TRACE(n);
    const std::vector<TraceRecord> records = numbered(n);
    VectorTraceSource src(records);
    Drained got;
    {
      DecodeAhead ring(src, 0);
      got = drain(ring);
      // The end of the stream stays the end.
      EXPECT_TRUE(ring.next().empty());
    }
    EXPECT_EQ(got.records, records);
    for (std::size_t i = 0; i + 1 < got.batches.size(); ++i) {
      EXPECT_EQ(got.batches[i], kBatch);
    }
  }
}

TEST(DecodeAhead, SyntheticStreamMatchesNext) {
  const TraceProfile& profile = profile_by_name("ts0");
  SyntheticWorkload a(profile, 1ull << 30, 0.01);
  SyntheticWorkload b(profile, 1ull << 30, 0.01);
  const std::vector<TraceRecord> reference = collect(a);
  ASSERT_GT(reference.size(), 4 * kRing);
  DecodeAhead ring(b, 0);
  EXPECT_EQ(drain(ring).records, reference);
}

TEST(DecodeAhead, CapTakesExactlyMaxRecordsFromTheSource) {
  const TraceProfile& profile = profile_by_name("ads");
  const std::vector<TraceRecord> vector_records = numbered(3 * kRing);
  for (const std::uint64_t cap :
       {std::uint64_t{1}, std::uint64_t{10}, std::uint64_t{kBatch - 1},
        std::uint64_t{kBatch}, std::uint64_t{kBatch + 1},
        std::uint64_t{kRing + kBatch / 2}, std::uint64_t{2 * kRing}}) {
    SCOPED_TRACE(cap);
    VectorTraceSource vec(vector_records);
    SyntheticWorkload synth(profile, 1ull << 30, 0.01);
    SyntheticWorkload synth_ref(profile, 1ull << 30, 0.01);
    const std::vector<TraceRecord> synth_records = collect(synth_ref);
    ASSERT_GT(synth_records.size(), cap);
    for (auto [src, all] :
         {std::pair<TraceSource*, const std::vector<TraceRecord>*>{
              &vec, &vector_records},
          {&synth, &synth_records}}) {
      {
        DecodeAhead ring(*src, cap);
        const Drained got = drain(ring);
        ASSERT_EQ(got.records.size(), cap);
        EXPECT_TRUE(std::equal(got.records.begin(), got.records.end(),
                               all->begin()));
      }
      // The worker is joined; the source resumes right after the cap.
      TraceRecord rec;
      ASSERT_TRUE(src->next(rec));
      EXPECT_EQ(rec, (*all)[cap]);
    }
  }
}

TEST(DecodeAhead, CapPastTheEndDeliversTheWholeStream) {
  const std::vector<TraceRecord> records = numbered(kBatch + 3);
  VectorTraceSource src(records);
  DecodeAhead ring(src, records.size() + 1000);
  EXPECT_EQ(drain(ring).records, records);
}

TEST(DecodeAhead, SourceExceptionArrivesInPlaceOfItsBatch) {
  for (const int fail_call : {1, 2, 3, 20}) {
    SCOPED_TRACE(fail_call);
    ThrowingSource src(fail_call);
    DecodeAhead ring(src, 0);
    std::vector<TraceRecord> got;
    const auto take_all = [&] {
      for (auto batch = ring.next(); !batch.empty(); batch = ring.next()) {
        got.insert(got.end(), batch.begin(), batch.end());
      }
    };
    try {
      take_all();
      ADD_FAILURE() << "no exception reached the consumer";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "bad record in batch " + std::to_string(fail_call));
    }
    // Exactly the batches before the failing one, none of its records.
    const auto before = static_cast<std::size_t>(fail_call - 1) * kBatch;
    ASSERT_EQ(got.size(), before);
    for (std::size_t i = 0; i < before; ++i) EXPECT_EQ(got[i].arrival, i);
    EXPECT_TRUE(ring.next().empty());
  }
}

TEST(DecodeAhead, DestroyedMidStreamStopsAndJoinsTheWorker) {
  // An endless source: the worker fills the ring and blocks, so only the
  // destructor's stop can end it. A hang here fails by timeout.
  for (const std::size_t taken :
       {std::size_t{0}, std::size_t{1}, std::size_t{DecodeAhead::kSlots / 2},
        std::size_t{DecodeAhead::kSlots}, std::size_t{5 * DecodeAhead::kSlots}}) {
    SCOPED_TRACE(taken);
    EndlessSource src;
    std::uint64_t expect = 0;
    {
      DecodeAhead ring(src, 0);
      for (std::size_t b = 0; b < taken; ++b) {
        const auto batch = ring.next();
        ASSERT_EQ(batch.size(), kBatch);
        for (const TraceRecord& rec : batch) EXPECT_EQ(rec.arrival, expect++);
      }
    }
  }
  // An unbounded cap on an endless source is the same case.
  EndlessSource src;
  DecodeAhead ring(src, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(ring.next().size(), kBatch);
}

TEST(DecodeAhead, SlowSourceMakesTheConsumerWait) {
  EndlessSource src(std::chrono::microseconds(200));
  const std::uint64_t cap = 3 * kRing + 5;
  DecodeAhead ring(src, cap);
  const Drained got = drain(ring);
  ASSERT_EQ(got.records.size(), cap);
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    ASSERT_EQ(got.records[i].arrival, i);
  }
}

TEST(DecodeAhead, SlowConsumerSeesEveryRecord) {
  // The worker runs ahead and blocks on a full ring again and again.
  const std::vector<TraceRecord> records = numbered(4 * kRing + 9);
  VectorTraceSource src(records);
  DecodeAhead ring(src, 0);
  std::vector<TraceRecord> got;
  for (auto batch = ring.next(); !batch.empty(); batch = ring.next()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    got.insert(got.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(got, records);
}

}  // namespace
}  // namespace ppssd::trace
