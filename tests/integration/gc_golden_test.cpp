// GC victim-decision determinism against the pre-optimization golden.
//
// tests/data/gc_decisions_golden.txt was captured from the full-scan
// victim-selection implementation (before the O(1) bucket index and the
// aggregate-driven ISR terms) on this exact replay scenario. The test
// replays it and asserts two things at every single GC decision:
//
//  1. Golden: the committed decision sequence — every (plane, region,
//     victim) in order, for all three schemes on two synthetic traces —
//     is reproduced exactly.
//  2. Oracle: the indexed / aggregate-driven select_victim() agrees with
//     the full-scan reference (tests/support/gc_reference.h) on the live
//     device state at the moment of the decision.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/scheme.h"
#include "ftl/gc_policy.h"
#include "sim/ssd.h"
#include "support/gc_reference.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd {
namespace {

std::vector<std::string> load_golden() {
  const std::string path =
      std::string(PPSSD_TEST_DATA_DIR) + "/gc_decisions_golden.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file: " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(GcGolden, OptimizedPoliciesReproduceSeedDecisions) {
  const std::vector<std::string> golden = load_golden();
  ASSERT_FALSE(golden.empty());

  const ftl::GreedyPolicy greedy;
  const ftl::IsrPolicy isr;

  std::vector<std::string> actual;
  actual.reserve(golden.size());

  // Fixed seed-era scheme list: the golden file was captured for these
  // three; newly registered schemes get their own coverage elsewhere.
  for (const std::string kind : {"Baseline", "MGA", "IPU"}) {
    for (const char* trace : {"ts0", "usr0"}) {
      const SsdConfig cfg = SsdConfig::scaled(1024);
      sim::Ssd ssd(cfg, kind);
      auto& scheme = ssd.scheme();
      const auto& geom = scheme.array().geometry();
      const std::uint32_t free_floor =
          scheme.blocks().gc_threshold_blocks(CellMode::kMlc) +
          std::max<std::uint32_t>(
              3, static_cast<std::uint32_t>(
                     0.03 * (geom.blocks_per_plane() -
                             geom.slc_blocks_per_plane())));
      scheme.prefill_mlc(geom.logical_subpages(), free_floor);

      // IPU's SLC region runs ISR; everything else is greedy.
      const bool slc_isr = kind == "IPU";

      scheme.set_gc_decision_hook([&](std::uint32_t plane, CellMode mode,
                                      BlockId victim, SimTime now) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s %s %u %s %u", scheme.name(),
                      trace, plane, mode == CellMode::kSlc ? "slc" : "mlc",
                      victim);
        actual.emplace_back(buf);

        // Oracle check on the live state: the fast path must agree with
        // the full-scan reference.
        const auto& array = scheme.array();
        const auto& bm = scheme.blocks();
        if (mode == CellMode::kMlc || !slc_isr) {
          const BlockId opt =
              greedy.select_victim(array, bm, plane, mode, now);
          const BlockId ref =
              ftl::reference::greedy_select_victim(array, bm, plane, mode);
          ASSERT_EQ(opt, ref) << buf;
          // SLC GC may fall back to oldest-data eviction when no greedy
          // victim exists; the committed victim matches the policy only
          // when the policy found one.
          if (opt != kInvalidBlock) {
            ASSERT_EQ(victim, opt) << buf;
          }
        } else {
          const BlockId opt = isr.select_victim(array, bm, plane, mode, now);
          const BlockId ref =
              ftl::reference::isr_select_victim(array, bm, plane, mode, now);
          ASSERT_EQ(opt, ref) << buf;
          if (opt != kInvalidBlock) {
            ASSERT_EQ(victim, opt) << buf;
          }
        }
      });

      trace::SyntheticWorkload wl(trace::profile_by_name(trace),
                                  ssd.logical_bytes(), 0.05);
      trace::TraceRecord rec;
      while (wl.next(rec)) {
        ssd.submit(rec.op, rec.offset, rec.size, rec.arrival);
      }
      scheme.set_gc_decision_hook(nullptr);
      scheme.check_consistency();
    }
  }

  ASSERT_EQ(actual.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(actual[i], golden[i]) << "first divergence at decision " << i;
  }
}

}  // namespace
}  // namespace ppssd
