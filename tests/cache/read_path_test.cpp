// Host read path: Scheme::host_read prices and coalesces in one pass.
// This checks it against a test-local oracle that first resolves every
// subpage of the request and only then coalesces same-page runs, on every
// registered scheme, over random reads that mix SLC- and MLC-resident
// data with never-written gaps. Ops (BER compared bit for bit), read
// counters and the read-BER statistics must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/registry.h"
#include "cache/scheme.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "ecc/ber_model.h"

namespace ppssd::cache {
namespace {

struct ExpectedRead {
  std::vector<PhysOp> ops;
  std::vector<double> bers;  // per mapped subpage, LSN order
  std::uint64_t slc = 0;
  std::uint64_t mlc = 0;
  std::uint64_t unmapped = 0;
};

/// Resolve every subpage first, then coalesce consecutive same-page hits.
ExpectedRead resolve_then_coalesce(const Scheme& scheme,
                                   const ecc::BerModel& ber_model, Lsn lsn,
                                   std::uint32_t count) {
  struct Resolved {
    PhysicalAddress addr;
    double ber = 0.0;
  };
  ExpectedRead out;
  std::vector<Resolved> resolved;
  for (std::uint32_t i = 0; i < count; ++i) {
    const PhysicalAddress addr = scheme.device_map().lookup(lsn + i);
    if (!addr.valid()) {
      resolved.push_back({});
      ++out.unmapped;
      continue;
    }
    const double ber = ber_model.raw_ber(
        scheme.array().disturb_of(addr.block, addr.page, addr.subpage));
    resolved.push_back({addr, ber});
    out.bers.push_back(ber);
    if (scheme.array().block(addr.block).mode() == CellMode::kSlc) {
      ++out.slc;
    } else {
      ++out.mlc;
    }
  }
  for (std::size_t i = 0; i < resolved.size();) {
    const Resolved& first = resolved[i];
    std::size_t j = i + 1;
    if (!first.addr.valid()) {
      while (j < resolved.size() && !resolved[j].addr.valid()) ++j;
      i = j;
      continue;
    }
    double max_ber = first.ber;
    while (j < resolved.size() && resolved[j].addr.valid() &&
           resolved[j].addr.block == first.addr.block &&
           resolved[j].addr.page == first.addr.page) {
      max_ber = std::max(max_ber, resolved[j].ber);
      ++j;
    }
    const nand::BlockStatic& bs =
        scheme.array().block_static(first.addr.block);
    PhysOp op;
    op.chip = bs.chip;
    op.channel = bs.channel;
    op.kind = PhysOp::Kind::kRead;
    op.mode = bs.mode;
    op.subpages = static_cast<std::uint32_t>(j - i);
    op.ber = max_ber;
    out.ops.push_back(op);
    i = j;
  }
  return out;
}

void expect_same_op(const PhysOp& got, const PhysOp& want) {
  EXPECT_EQ(got.chip, want.chip);
  EXPECT_EQ(got.channel, want.channel);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.subpages, want.subpages);
  EXPECT_EQ(got.ber, want.ber);  // bit for bit
  EXPECT_EQ(got.background, want.background);
  EXPECT_EQ(got.origin, want.origin);
  EXPECT_EQ(got.depends_on, want.depends_on);
}

struct Tally {
  std::uint64_t slc = 0, mlc = 0, unmapped = 0;
  RunningStat ber;
};

TEST(HostReadPath, OnePassMatchesResolveThenCoalesceOracle) {
  const std::vector<std::string> names = SchemeRegistry::instance().names();
  ASSERT_GE(names.size(), 4u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    SsdConfig cfg = SsdConfig::scaled(1024);
    cfg.cache.gc_interleave_ops = 0;
    const auto scheme = make_scheme(name, cfg);
    const ecc::BerModel ber_model(cfg.ber);
    Rng rng(0x5eed);

    // [0, kPrefilled) starts out in MLC. Host writes land in SLC and skip
    // every other 16-LSN stripe of [kPrefilled, kWritten), and nothing is
    // written to [kWritten, kSpan): reads see SLC and MLC pages with
    // never-written gaps between and after them.
    constexpr Lsn kPrefilled = 2048;
    constexpr Lsn kWritten = 6000;
    constexpr Lsn kSpan = 6400;
    scheme->prefill_mlc(
        kPrefilled, scheme->blocks().gc_threshold_blocks(CellMode::kMlc) + 1);
    std::vector<PhysOp> ops;
    SimTime now = 0;
    Tally tally;
    for (int step = 0; step < 6000; ++step) {
      now += ms_to_ns(1.0);
      ops.clear();
      if (rng.next_double() < 0.6) {
        const auto count = static_cast<std::uint32_t>(1 + rng.next_below(12));
        const Lsn lsn = rng.next_below(kWritten - count);
        const bool in_hole = lsn + count > kPrefilled &&
                             ((lsn & 16) != 0 || ((lsn + count - 1) & 16) != 0);
        if (in_hole) continue;
        scheme->host_write(lsn, count, now, ops);
        continue;
      }
      // Single-subpage reads, short reads and reads spanning many pages.
      const double kind = rng.next_double();
      const auto count = static_cast<std::uint32_t>(
          kind < 0.25   ? 1
          : kind < 0.75 ? 1 + rng.next_below(8)
                        : 8 + rng.next_below(40));
      const Lsn lsn = rng.next_below(kSpan - count);
      const ExpectedRead want =
          resolve_then_coalesce(*scheme, ber_model, lsn, count);
      scheme->host_read(lsn, count, now, ops);
      ASSERT_EQ(ops.size(), want.ops.size()) << "read " << lsn << "+" << count;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        expect_same_op(ops[i], want.ops[i]);
      }
      for (const double ber : want.bers) tally.ber.add(ber);
      tally.slc += want.slc;
      tally.mlc += want.mlc;
      tally.unmapped += want.unmapped;
    }

    const SchemeMetrics& m = scheme->metrics();
    EXPECT_GT(tally.slc, 0u);
    EXPECT_GT(tally.mlc, 0u);
    EXPECT_GT(tally.unmapped, 0u);
    EXPECT_EQ(m.host_reads_slc, tally.slc);
    EXPECT_EQ(m.host_reads_mlc, tally.mlc);
    EXPECT_EQ(m.host_reads_unmapped, tally.unmapped);
    EXPECT_EQ(m.read_ber.count(), tally.ber.count());
    EXPECT_EQ(m.read_ber.mean(), tally.ber.mean());
    EXPECT_EQ(m.read_ber.variance(), tally.ber.variance());
    EXPECT_EQ(m.read_ber.min(), tally.ber.min());
    EXPECT_EQ(m.read_ber.max(), tally.ber.max());
    scheme->check_consistency();
  }
}

TEST(HostReadPath, UnmappedGapSplitsARunOnOnePage) {
  // MGA appends consecutive requests on one plane into the same open
  // page, so LSNs 100 and 102 share a page while 101 is never written:
  // the gap must split the read into two page reads.
  SsdConfig cfg = SsdConfig::scaled(1024);
  const auto scheme = make_scheme("MGA", cfg);
  const std::uint32_t planes = scheme->array().geometry().planes();
  std::vector<PhysOp> ops;
  scheme->host_write(100, 1, ms_to_ns(1.0), ops);
  for (std::uint32_t k = 1; k < planes; ++k) {
    scheme->host_write(1000 + 16 * k, 1, ms_to_ns(1.0), ops);
  }
  scheme->host_write(102, 1, ms_to_ns(2.0), ops);
  const PhysicalAddress a = scheme->device_map().lookup(100);
  const PhysicalAddress b = scheme->device_map().lookup(102);
  ASSERT_EQ(a.block, b.block);
  ASSERT_EQ(a.page, b.page);

  const ExpectedRead want =
      resolve_then_coalesce(*scheme, ecc::BerModel(cfg.ber), 100, 3);
  ASSERT_EQ(want.ops.size(), 2u);
  ops.clear();
  scheme->host_read(100, 3, ms_to_ns(3.0), ops);
  ASSERT_EQ(ops.size(), want.ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    expect_same_op(ops[i], want.ops[i]);
  }
}

}  // namespace
}  // namespace ppssd::cache
