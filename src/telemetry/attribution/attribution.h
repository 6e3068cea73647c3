// Causal latency attribution: a per-request blame ledger.
//
// The ledger folds every scheduled command's OpRecord (telemetry/
// op_stream.h, handed over by the OpStream) into *additive* components:
// raw NAND service, ECC decode, and wait intervals on the three timing
// resources (chip array lane, channel, suspendable-erase horizon). Each
// wait interval is charged to the command that occupied the resource,
// identified by a claim deque per resource: whenever a command advances
// a resource horizon it pushes a claim (end time, op id, op class); a
// later command that waits on the resource partitions its wait interval
// by the consecutive claim ends — head-of-queue blame — so every waited
// tick names a blocking op.
//
// The Ssd brackets each host request on the same OpStream
// (begin_request / finish_request), and the ledger folds the request's
// foreground ops into one component vector by walking the critical
// chain backwards from the op that determined the completion time: an
// op whose `ready` exceeds the arrival was gated by the op that finished
// exactly at `ready` (the controller resolves dependencies to finish
// times, so the chain links are exact tick equalities). Because every
// op conserves (components sum to end - ready) and the chain telescopes
// from finish down to arrival, the request vector conserves too:
//
//     sum(components) == finish - arrival            (exact, in ticks)
//
// — enforced by PPSSD_CHECK at both levels. This is the hard invariant
// the randomized dual-accounting test recomputes independently.
//
// Blame coarsening (never conservation loss): claim deques are capped at
// kMaxClaims entries per resource; overflow drops the oldest claim, so a
// wait slice older than the window is blamed on the oldest *surviving*
// claim. Likewise, claims present when the ledger attaches mid-run are
// seeded as kPrefill.
//
// Aggregates:
//  * interference matrix — waited ns by (blocked class, blocker class,
//    resource, cell mode), exposed raw via wait_ns() and, coarsened to
//    {host, gc, erase, prefill} groups, as `attrib_wait_ns` gauges in an
//    attached MetricsRegistry;
//  * per-component host-latency histograms
//    (`host_latency_component_ms{component=...}`: p50/p95/p99/p999);
//  * suspend savings — ticks a foreground op would have waited for an
//    in-progress erase had the controller not suspended it;
//  * a compact binary dump (one fixed-size record per request, see
//    kLedgerMagic) that tools/latency_explain turns into a
//    "why was p999 slow" report.
//
// Zero-cost when detached: the controller's only per-op observer cost is
// the OpStream's attached() test (null-handle pattern, DESIGN.md §6).
// The write_bench `write/attrib/{off,on}` cells print the submit-path
// cost with the ledger detached and attached; nothing gates on them.
//
// Layering: this module sees only common/ types — the controller maps
// cache::PhysOp (origin, kind, background) onto the record's FlashOp and
// OpClass, so ppssd_telemetry keeps its common-only dependency edge.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "telemetry/metrics.h"

namespace ppssd::telemetry {
struct Interval;  // op_stream.h
struct OpRecord;
}

namespace ppssd::telemetry::attribution {

/// Who issued the op (the controller classifies from PhysOp origin/kind).
enum class OpClass : std::uint8_t {
  kHost = 0,       // foreground host command
  kGcRead = 1,     // background GC / migration page read
  kGcProgram = 2,  // background GC / migration program
  kErase = 3,      // block erase (suspendable horizon)
  kPrefill = 4,    // warm-up traffic, or resource state seeded at attach
};
inline constexpr std::size_t kClassCount = 5;
[[nodiscard]] const char* class_name(OpClass cls);

/// Additive latency components. Wait components are (resource x blocker
/// class); service/ECC are occupancy of the op itself.
enum class Component : std::uint8_t {
  kService = 0,         // array sense/program/erase + channel transfer
  kEcc = 1,             // controller-side decode after a read transfer
  kLaneHost = 2,        // chip-lane queueing behind host ops
  kLaneGcRead = 3,      // ... behind GC reads
  kLaneGcProgram = 4,   // ... behind GC programs
  kLanePrefill = 5,     // ... behind pre-attach / warm-up occupancy
  kChanHost = 6,        // channel contention with host transfers
  kChanGcRead = 7,      // ... with GC read transfers
  kChanGcProgram = 8,   // ... with GC program transfers
  kChanPrefill = 9,     // ... with pre-attach / warm-up transfers
  kEraseRemainder = 10,  // background op waiting out an in-progress erase
};
inline constexpr std::size_t kComponentCount = 11;
[[nodiscard]] const char* component_name(Component c);

/// The three timing resources a command can wait on.
enum class Resource : std::uint8_t { kLane = 0, kChannel = 1, kErase = 2 };
inline constexpr std::size_t kResourceCount = 3;

/// Wait component charged for a slice on `r` blamed on a `blocker` op.
[[nodiscard]] Component wait_component(Resource r, OpClass blocker);

/// Blame vector of one scheduled command (exposed for tests via
/// last_op()).
struct OpBlame {
  std::uint64_t op_id = 0;
  OpClass cls = OpClass::kHost;
  CellMode mode = CellMode::kSlc;
  bool background = false;
  std::uint32_t chip = 0;
  std::uint32_t channel = 0;
  SimTime ready = 0;
  SimTime end = 0;
  SimTime comp[kComponentCount] = {};
  // Largest single blocking slice and the claim it was charged to.
  SimTime blocked_ns = 0;
  std::uint64_t blocker_op = 0;
  OpClass blocker_cls = OpClass::kHost;
  Resource blocker_res = Resource::kLane;

  [[nodiscard]] SimTime component_sum() const {
    SimTime s = 0;
    for (SimTime c : comp) s += c;
    return s;
  }
};

/// Blame vector of one host request (critical-chain fold of its
/// foreground ops). This is also the binary ledger record.
struct RequestBlame {
  std::uint64_t id = 0;
  OpType op = OpType::kRead;
  SimTime arrival = 0;
  SimTime finish = 0;
  SimTime comp[kComponentCount] = {};
  std::uint32_t fg_ops = 0;  // foreground ops folded into the chain
  // Worst single blocking slice across the chain.
  SimTime blocked_ns = 0;
  std::uint64_t blocker_op = 0;
  std::uint32_t blocker_chip = 0;
  OpClass blocker_cls = OpClass::kHost;
  Resource blocker_res = Resource::kLane;

  [[nodiscard]] SimTime latency() const { return finish - arrival; }
  [[nodiscard]] SimTime component_sum() const {
    SimTime s = 0;
    for (SimTime c : comp) s += c;
    return s;
  }
};

/// Binary ledger framing (see attribution.cpp for the exact layout).
inline constexpr char kLedgerMagic[8] = {'P', 'P', 'S', 'S',
                                         'D', 'A', 'L', 'G'};
inline constexpr std::uint32_t kLedgerVersion = 1;

class AttributionLedger {
 public:
  AttributionLedger();
  AttributionLedger(const AttributionLedger&) = delete;
  AttributionLedger& operator=(const AttributionLedger&) = delete;
  ~AttributionLedger();

  // ---- resource topology (controller attach/reset) --------------------

  /// Size the claim deques. Keeps existing claims when the topology is
  /// unchanged (re-attach), clears them otherwise.
  void bind_resources(std::uint32_t chips, std::uint32_t channels);

  /// Drop all claims and any open request (controller reset between
  /// warm-up and measurement; aggregates and records are preserved).
  void reset_resources();

  /// Register a pre-existing horizon of resource `r` (chip or channel
  /// `index`) as a kPrefill claim so waits against pre-attach occupancy
  /// stay fully covered (mid-run attach).
  void seed(Resource r, std::uint32_t index, SimTime horizon);

  // ---- per-op fold (OpStream) -------------------------------------------

  /// Fold one scheduled command: charge its waits in the controller's leg
  /// order (of two equal slices the first charged is the blocker), add
  /// service and ECC, push its claims, PPSSD_CHECK per-op conservation,
  /// and keep a foreground op's blame for the open request.
  void on_op(const OpRecord& rec);

  // ---- per-request lifecycle (Ssd) -------------------------------------

  void begin_request(std::uint64_t id, OpType op, SimTime arrival);
  /// Fold the request's foreground ops along the critical chain ending
  /// at `finish`; PPSSD_CHECK the conservation invariant; aggregate and
  /// (when a dump is open) serialize the record.
  void finish_request(SimTime finish);

  // ---- aggregation sinks ----------------------------------------------

  /// Register the coarse interference matrix (gauges polled from this
  /// ledger), per-component latency histograms and the suspend-savings
  /// gauge, all labelled {scheme=<name>}. The registry must outlive the
  /// ledger or be re-attached.
  void attach_registry(MetricsRegistry* registry, const std::string& scheme);

  /// Open / finalize the binary ledger dump.
  bool open_dump(const std::string& path);
  void close_dump();

  // ---- introspection ---------------------------------------------------

  /// Blame of the most recently completed op (test hook).
  [[nodiscard]] const OpBlame& last_op() const { return last_op_; }
  /// Waited ns with `blocked` class stalled behind `blocker` on `r`,
  /// split by the blocked op's cell mode.
  [[nodiscard]] std::uint64_t wait_ns(OpClass blocked, OpClass blocker,
                                      Resource r, CellMode mode) const;
  [[nodiscard]] std::uint64_t suspend_saved_ns() const {
    return suspend_saved_ns_;
  }
  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

  /// Keep every RequestBlame in memory (tests; off by default).
  void set_keep_records(bool keep) { keep_records_ = keep; }
  [[nodiscard]] const std::vector<RequestBlame>& records() const {
    return records_;
  }

 private:
  /// One horizon advance on a resource. Ends are strictly increasing per
  /// deque (every command has positive service time).
  struct Claim {
    SimTime end = 0;
    std::uint64_t op = 0;
    OpClass cls = OpClass::kPrefill;
  };
  using ClaimDeque = std::deque<Claim>;
  /// Cap per resource: overflow drops the oldest claim (blame coarsens
  /// to the oldest survivor; conservation is unaffected).
  static constexpr std::size_t kMaxClaims = 64;

  void charge(OpBlame& op, ClaimDeque& claims, Resource r,
              const Interval& wait);
  static void push_claim(ClaimDeque& claims, const OpBlame& op, SimTime end);
  void write_record(const RequestBlame& r);
  void flush_dump();

  std::vector<ClaimDeque> lane_claims_;
  std::vector<ClaimDeque> channel_claims_;
  std::vector<ClaimDeque> erase_claims_;

  OpBlame last_op_;

  bool request_open_ = false;
  RequestBlame req_;
  std::vector<OpBlame> req_ops_;  // foreground ops of the open request

  // matrix_[blocked][blocker][resource][mode] in ns.
  std::uint64_t matrix_[kClassCount][kClassCount][kResourceCount][2] = {};
  std::uint64_t suspend_saved_ns_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t ops_ = 0;

  Histogram* tl_component_ms_[kComponentCount] = {};

  bool keep_records_ = false;
  std::vector<RequestBlame> records_;

  std::unique_ptr<std::ofstream> dump_;
  std::vector<unsigned char> dump_buf_;
};

/// Parsed ledger dump (tools/latency_explain, tests).
struct LedgerFile {
  std::uint32_t version = 0;
  std::vector<std::string> component_names;
  std::vector<std::string> class_names;
  std::vector<RequestBlame> records;
};

/// Load a binary ledger dump; false (with *error set) on malformed
/// input. A file truncated mid-record loads the complete prefix.
[[nodiscard]] bool load_ledger(const std::string& path, LedgerFile* out,
                               std::string* error);

}  // namespace ppssd::telemetry::attribution
