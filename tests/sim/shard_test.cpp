// Sharded window pricing (DESIGN.md §15) against the sequential oracle.
//
// The executor's contract is bit-identity: pricing a window across N
// shards and replaying the outcomes (per-op commits, or one aggregate
// merge) must leave the controller in exactly the state sequential
// schedule() calls would have. The randomized twins here drive both
// paths with the same op streams — random chips, kinds, modes and
// in-window dependencies (including cross-shard ones, which force
// segment cuts) — over multiple windows, and compare every observable:
// per-op completion times, lane/erase/channel horizons, usage and
// occupancy accumulators, scheduled-op counts, the clock after a full
// drain, and (for the commit path) the blame ledger's per-op
// decomposition. A randomized EventQueue test pins the stable-merge
// property the cross-window retirement order rests on.
#include "sim/shard_executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cache/scheme.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/controller.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"

namespace ppssd::sim {
namespace {

constexpr std::uint32_t kChips = 8;
constexpr std::uint32_t kChannels = 4;

/// Random op honouring the topology contract (channel = chip % channels)
/// the shard partitioning rests on.
cache::PhysOp rand_op(Rng& rng) {
  cache::PhysOp op;
  op.chip = static_cast<std::uint32_t>(rng.next_below(kChips));
  op.channel = op.chip % kChannels;
  const std::uint64_t kind = rng.next_below(10);
  if (kind < 4) {
    op.kind = cache::PhysOp::Kind::kRead;
  } else if (kind < 8) {
    op.kind = cache::PhysOp::Kind::kProgram;
  } else if (kind < 9) {
    op.kind = cache::PhysOp::Kind::kReprogram;
  } else {
    op.kind = cache::PhysOp::Kind::kErase;
  }
  op.mode = op.kind == cache::PhysOp::Kind::kReprogram || rng.next_below(2)
                ? CellMode::kMlc
                : CellMode::kSlc;
  op.subpages = static_cast<std::uint32_t>(1 + rng.next_below(4));
  op.ber = 0.0;
  op.background =
      op.kind == cache::PhysOp::Kind::kErase || rng.next_below(3) == 0;
  op.origin = op.background ? cache::OpOrigin::kGc : cache::OpOrigin::kHost;
  return op;
}

/// One admission window: arrival-ordered floors, ~30% of items depending
/// on a random earlier item of the same window (any shard).
std::vector<ShardExecutor::WinItem> random_window(Rng& rng, std::size_t n,
                                                  SimTime* now) {
  std::vector<ShardExecutor::WinItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    *now += rng.next_below(us_to_ns(20.0));
    ShardExecutor::WinItem it;
    it.op = rand_op(rng);
    it.floor = *now;
    if (i > 0 && rng.next_below(10) < 3) {
      it.dep = static_cast<std::uint32_t>(rng.next_below(i));
    }
    items.push_back(it);
  }
  return items;
}

/// Sequential oracle: schedule the window through the reference path.
std::vector<SimTime> schedule_sequential(
    Controller& ctrl, const std::vector<ShardExecutor::WinItem>& items) {
  std::vector<SimTime> ends(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SimTime ready = items[i].floor;
    if (items[i].dep != ShardExecutor::kNoDep) {
      ready = std::max(ready, ends[items[i].dep]);
    }
    ends[i] = ctrl.schedule(items[i].op, ready);
  }
  return ends;
}

void expect_same_state(const Controller& a, const Controller& b) {
  for (std::uint32_t c = 0; c < kChips; ++c) {
    EXPECT_EQ(a.chip_free_at(c), b.chip_free_at(c)) << "chip " << c;
    EXPECT_EQ(a.chip_erase_free_at(c), b.chip_erase_free_at(c)) << "chip " << c;
  }
  for (std::uint32_t c = 0; c < kChannels; ++c) {
    EXPECT_EQ(a.channel_free_at(c), b.channel_free_at(c)) << "channel " << c;
  }
  EXPECT_EQ(a.chip_occupancy(), b.chip_occupancy());
  EXPECT_EQ(a.usage().read_fg, b.usage().read_fg);
  EXPECT_EQ(a.usage().read_bg, b.usage().read_bg);
  EXPECT_EQ(a.usage().program_fg, b.usage().program_fg);
  EXPECT_EQ(a.usage().program_bg, b.usage().program_bg);
  EXPECT_EQ(a.usage().erase_bg, b.usage().erase_bg);
  EXPECT_EQ(a.scheduled_ops(), b.scheduled_ops());
}

struct ShardCase {
  std::uint32_t shards;
  std::size_t window;  // items per window (below / above the inline cutoff)
};

class ShardedPricing : public ::testing::TestWithParam<ShardCase> {};

// Commit-replay path (the "exact" mode a run with observers uses):
// price each window across shards, replay per-op commits in submission
// order, and compare every op end and the full controller state against
// the sequential twin — over several windows, so the horizon mirrors
// reload against an already-advanced controller.
TEST_P(ShardedPricing, CommitReplayMatchesSequentialAcrossSeeds) {
  const ShardCase& sc = GetParam();
  const SsdConfig cfg = SsdConfig::scaled(1024);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Controller seq(cfg, kChips, kChannels);
    Controller win(cfg, kChips, kChannels);
    ShardExecutor exec(sc.shards);
    std::vector<Controller::OpOutcome> out;

    Rng rng(seed);
    SimTime now = 0;
    SimTime last_end = 0;
    for (int w = 0; w < 4; ++w) {
      const auto items = random_window(rng, sc.window, &now);
      const std::vector<SimTime> ends = schedule_sequential(seq, items);
      for (const SimTime e : ends) last_end = std::max(last_end, e);

      exec.price_window(win, items, out);
      ASSERT_EQ(out.size(), items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        ASSERT_EQ(out[i].end, ends[i])
            << "seed " << seed << " window " << w << " item " << i;
      }
      for (std::size_t i = 0; i < items.size(); ++i) {
        win.commit(items[i].op, out[i]);
      }
      expect_same_state(seq, win);
    }
    seq.advance_to(kNoTime);
    win.advance_to(kNoTime);
    EXPECT_EQ(seq.clock(), win.clock()) << "seed " << seed;
    // The full drain lands on the last completion: nothing stays in flight.
    EXPECT_EQ(seq.clock(), last_end) << "seed " << seed;
  }
}

// Aggregate fast path (no observers attached): one apply_window() merge
// per window must land horizons, usage, occupancy, op count and the
// post-drain clock on exactly the sequential values.
TEST_P(ShardedPricing, AggregateFastPathMatchesSequential) {
  const ShardCase& sc = GetParam();
  const SsdConfig cfg = SsdConfig::scaled(1024);
  Controller seq(cfg, kChips, kChannels);
  Controller win(cfg, kChips, kChannels);
  ASSERT_FALSE(win.has_observers());
  ShardExecutor exec(sc.shards);
  std::vector<Controller::OpOutcome> out;

  Rng rng(99);
  SimTime now = 0;
  for (int w = 0; w < 4; ++w) {
    const auto items = random_window(rng, sc.window, &now);
    schedule_sequential(seq, items);
    exec.price_window(win, items, out);
    win.apply_window(exec.aggregate());
    expect_same_state(seq, win);
  }
  seq.advance_to(kNoTime);
  win.advance_to(kNoTime);
  EXPECT_EQ(seq.clock(), win.clock());
}

// With the blame ledger attached, commits must replay the attribution
// stream op for op: same decomposition vectors, same blocker
// identification, in the same ledger order.
TEST_P(ShardedPricing, CommitReplaysAttributionIdentically) {
  const ShardCase& sc = GetParam();
  const SsdConfig cfg = SsdConfig::scaled(1024);
  telemetry::TelemetryOptions topt;
  topt.attribution = true;

  Controller seq(cfg, kChips, kChannels);
  telemetry::Telemetry tel_seq(topt);
  seq.attach_telemetry(&tel_seq);

  Controller win(cfg, kChips, kChannels);
  telemetry::Telemetry tel_win(topt);
  win.attach_telemetry(&tel_win);
  ASSERT_TRUE(win.has_observers());

  ShardExecutor exec(sc.shards);
  std::vector<Controller::OpOutcome> out;
  Rng rng(7);
  SimTime now = 0;
  const auto items = random_window(rng, sc.window, &now);

  exec.price_window(win, items, out);
  std::vector<SimTime> ends(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SimTime ready = items[i].floor;
    if (items[i].dep != ShardExecutor::kNoDep) {
      ready = std::max(ready, ends[items[i].dep]);
    }
    ends[i] = seq.schedule(items[i].op, ready);
    win.commit(items[i].op, out[i]);

    const auto& a = tel_seq.attribution()->last_op();
    const auto& b = tel_win.attribution()->last_op();
    ASSERT_EQ(a.op_id, b.op_id) << "item " << i;
    ASSERT_EQ(a.ready, b.ready) << "item " << i;
    ASSERT_EQ(a.end, b.end) << "item " << i;
    ASSERT_EQ(std::memcmp(a.comp, b.comp, sizeof(a.comp)), 0) << "item " << i;
    ASSERT_EQ(a.blocked_ns, b.blocked_ns) << "item " << i;
    ASSERT_EQ(a.blocker_op, b.blocker_op) << "item " << i;
  }
  EXPECT_EQ(tel_seq.attribution()->ops(), tel_win.attribution()->ops());
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndWindowSizes, ShardedPricing,
    ::testing::Values(ShardCase{1, 400}, ShardCase{2, 60}, ShardCase{2, 400},
                      ShardCase{4, 60}, ShardCase{4, 2000},
                      ShardCase{8, 400}),
    [](const ::testing::TestParamInfo<ShardCase>& info) {
      return "s" + std::to_string(info.param.shards) + "_w" +
             std::to_string(info.param.window);
    });

// A cross-shard dependency must gate the dependent op's start even when
// its own chip and channel are idle — the segment cut, deterministic.
TEST(ShardedPricing, CrossShardDependencyGatesIdleChip) {
  const SsdConfig cfg = SsdConfig::scaled(1024);
  Controller ctrl(cfg, kChips, kChannels);
  ShardExecutor exec(2);

  std::vector<ShardExecutor::WinItem> items(2);
  items[0].op.chip = 0;  // channel 0 -> shard 0
  items[0].op.channel = 0;
  items[0].op.kind = cache::PhysOp::Kind::kRead;
  items[0].op.mode = CellMode::kSlc;
  items[0].op.subpages = 1;
  items[0].op.background = true;
  items[0].floor = 0;
  items[1].op.chip = 1;  // channel 1 -> shard 1
  items[1].op.channel = 1;
  items[1].op.kind = cache::PhysOp::Kind::kProgram;
  items[1].op.mode = CellMode::kSlc;
  items[1].op.subpages = 1;
  items[1].op.background = true;
  items[1].floor = 0;
  items[1].dep = 0;  // GC relocation: program consumes the read's data

  std::vector<Controller::OpOutcome> out;
  exec.price_window(ctrl, items, out);
  const SimTime read_end = cfg.timing.slc_read +
                           cfg.timing.transfer_per_subpage +
                           cfg.ecc.min_decode;
  EXPECT_EQ(out[0].end, read_end);
  EXPECT_EQ(out[1].end, read_end + cfg.timing.transfer_per_subpage +
                            cfg.timing.slc_write);
}

// The stable-merge property the windowed retirement order rests on:
// events pushed with equal timestamps pop in push order, regardless of
// how the push sequence interleaves times.
TEST(EventQueueStability, EqualTimesPopInPushOrderRandomized) {
  Rng rng(1234);
  EventQueue<std::uint64_t> q;
  std::vector<std::pair<SimTime, std::uint64_t>> pushed;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const SimTime t = static_cast<SimTime>(rng.next_below(40));  // dense ties
    q.push(t, i);
    pushed.emplace_back(t, i);
  }
  // The oracle: stable sort by time only — FIFO within a timestamp.
  std::stable_sort(pushed.begin(), pushed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t k = 0;
  q.drain_until(kNoTime, [&](const auto& ev) {
    ASSERT_EQ(ev.time, pushed[k].first) << "event " << k;
    ASSERT_EQ(ev.payload, pushed[k].second) << "event " << k;
    ++k;
  });
  EXPECT_EQ(k, pushed.size());
}

}  // namespace
}  // namespace ppssd::sim
