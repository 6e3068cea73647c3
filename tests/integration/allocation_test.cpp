// Allocation budget of the device rows and the host read path:
// FlashArray construction makes no per-block heap allocation, and
// Scheme::host_read and the replay walker's request-lookahead hints make
// none. A binary of its own, because it replaces the global operator new
// to count calls.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/units.h"
#include "nand/flash_array.h"
#include "sim/replayer.h"
#include "sim/ssd.h"
#include "trace/record.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler does not see malloc/free pair up with
// new/delete expressions at call sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*n*/) noexcept {
  std::free(p);
}

namespace ppssd {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t allocations_to_construct(std::uint32_t blocks) {
  const SsdConfig cfg = SsdConfig::scaled(blocks);
  const std::uint64_t before = allocations();
  { const nand::FlashArray array(cfg); }
  return allocations() - before;
}

TEST(AllocationBudget, FlashArrayConstructionMakesNoPerBlockAllocation) {
  // A handful of rows and tables, whatever the size. (Rows mapped on huge
  // pages bypass operator new, so the count is bounded, not constant.)
  for (const std::uint32_t blocks : {1024u, 16384u}) {
    EXPECT_LT(allocations_to_construct(blocks), 32u) << blocks << " blocks";
  }
}

TEST(AllocationBudget, HostReadAllocatesNothing) {
  for (const char* name : {"Baseline", "MGA", "IPU", "IPS"}) {
    SCOPED_TRACE(name);
    const auto scheme = cache::make_scheme(name, SsdConfig::scaled(1024));
    std::vector<cache::PhysOp> ops;
    ops.reserve(1024);
    Rng rng(7);
    SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
      now += ms_to_ns(1.0);
      ops.clear();
      const auto count = static_cast<std::uint32_t>(1 + rng.next_below(16));
      scheme->host_write(rng.next_below(4000), count, now, ops);
    }
    // Two passes over the same reads: the first fills the BER model's
    // per-P/E-count memo, the second must not allocate at all.
    std::uint64_t during = 0;
    for (int pass = 0; pass < 2; ++pass) {
      Rng reads(11);
      const std::uint64_t before = allocations();
      for (int i = 0; i < 2000; ++i) {
        ops.clear();
        const auto count = static_cast<std::uint32_t>(1 + reads.next_below(48));
        scheme->host_read(reads.next_below(4400), count, now, ops);
      }
      during = allocations() - before;
    }
    EXPECT_EQ(during, 0u);
  }
}

TEST(AllocationBudget, LookaheadHintsAllocateNothing) {
  for (const char* name : {"Baseline", "MGA", "IPU", "IPS"}) {
    SCOPED_TRACE(name);
    sim::Ssd ssd(SsdConfig::scaled(1024), name);
    const std::uint64_t total =
        ssd.scheme().array().geometry().logical_subpages();
    Rng rng(5);
    std::array<trace::TraceRecord, trace::DecodeAhead::kBatch> batch;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Offsets up to 64 subpages past the logical space wrap.
      const std::uint64_t offset = rng.next_below(total + 64) * kSubpageBytes;
      const auto count = static_cast<std::uint32_t>(1 + rng.next_below(16));
      batch[i] = trace::TraceRecord{ms_to_ns(static_cast<double>(i + 1)),
                                    OpType::kWrite, offset, count * 4096};
      ssd.submit(batch[i].op, batch[i].offset, batch[i].size,
                 batch[i].arrival);
    }
    const cache::Scheme& scheme = ssd.scheme();
    const std::uint64_t before = allocations();
    for (Lsn lsn = 0; lsn < total; lsn += 97) {
      scheme.device_map().prefetch(lsn);
      scheme.prefetch_rows(lsn);
    }
    scheme.device_map().prefetch(total - 1);
    scheme.prefetch_rows(total - 1);
    std::size_t visited = 0;
    sim::for_each_ahead(ssd, batch,
                        [&visited](const trace::TraceRecord&) { ++visited; });
    EXPECT_EQ(allocations() - before, 0u);
    EXPECT_EQ(visited, batch.size());
  }
}

}  // namespace
}  // namespace ppssd
