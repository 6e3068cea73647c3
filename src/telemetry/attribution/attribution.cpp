#include "telemetry/attribution/attribution.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/byte_io.h"
#include "telemetry/op_stream.h"

namespace ppssd::telemetry::attribution {

namespace {

// Per-OpClass tables, indexed by the enum value.
constexpr const char* kClassNames[kClassCount] = {
    "host", "gc_read", "gc_program", "erase", "prefill"};
// Coarse who-blocked-whom group for the registry matrix.
constexpr int kClassGroup[kClassCount] = {0, 1, 1, 2, 3};
const char* kGroupNames[4] = {"host", "gc", "erase", "prefill"};
// Offset of a blocker's wait component from kLaneHost / kChanHost. Erases
// never occupy a lane or channel claim; blame coarsening (dropped claims)
// can surface one only via the prefill bucket.
constexpr int kBlockerSlot[kClassCount] = {0, 1, 2, 3, 3};

constexpr const char* kComponentNames[kComponentCount] = {
    "service",   "ecc",
    "lane_host", "lane_gc_read", "lane_gc_program", "lane_prefill",
    "chan_host", "chan_gc_read", "chan_gc_program", "chan_prefill",
    "erase_remainder"};

// Fixed-size record layout, little-endian, written field by field (see
// write_record / read_record). Keep in sync with kLedgerVersion.
constexpr std::uint32_t kRecordBytes = 140;
constexpr std::size_t kDumpFlushBytes = 1u << 20;

}  // namespace

const char* class_name(OpClass cls) {
  const auto i = static_cast<std::size_t>(cls);
  return i < kClassCount ? kClassNames[i] : "?";
}

const char* component_name(Component c) {
  const auto i = static_cast<std::size_t>(c);
  return i < kComponentCount ? kComponentNames[i] : "?";
}

Component wait_component(Resource r, OpClass blocker) {
  // The suspendable-erase horizon is advanced only by erases (and attach
  // seeds); every tick waited there is erase remainder.
  if (r == Resource::kErase) return Component::kEraseRemainder;
  const Component base =
      r == Resource::kLane ? Component::kLaneHost : Component::kChanHost;
  const int slot = kBlockerSlot[static_cast<std::size_t>(blocker)];
  return static_cast<Component>(static_cast<int>(base) + slot);
}

AttributionLedger::AttributionLedger() = default;

AttributionLedger::~AttributionLedger() { close_dump(); }

void AttributionLedger::bind_resources(std::uint32_t chips,
                                       std::uint32_t channels) {
  if (lane_claims_.size() != chips) {
    lane_claims_.assign(chips, ClaimDeque{});
    erase_claims_.assign(chips, ClaimDeque{});
  }
  if (channel_claims_.size() != channels) {
    channel_claims_.assign(channels, ClaimDeque{});
  }
}

void AttributionLedger::reset_resources() {
  for (auto& d : lane_claims_) d.clear();
  for (auto& d : channel_claims_) d.clear();
  for (auto& d : erase_claims_) d.clear();
  request_open_ = false;
}

void AttributionLedger::seed(Resource r, std::uint32_t index,
                             SimTime horizon) {
  std::vector<ClaimDeque>& all = r == Resource::kLane      ? lane_claims_
                                 : r == Resource::kChannel ? channel_claims_
                                                           : erase_claims_;
  PPSSD_CHECK(index < all.size());
  ClaimDeque& claims = all[index];
  if (horizon == 0) return;
  if (!claims.empty() && claims.back().end >= horizon) return;
  claims.push_back(Claim{horizon, 0, OpClass::kPrefill});
}

void AttributionLedger::charge(OpBlame& op, ClaimDeque& claims, Resource r,
                               const Interval& wait) {
  if (wait.to <= wait.from) return;
  while (!claims.empty() && claims.front().end <= wait.from) {
    claims.pop_front();
  }
  const int mode = op.mode == CellMode::kSlc ? 0 : 1;
  SimTime t = wait.from;
  for (const Claim& c : claims) {
    if (t >= wait.to) break;
    const SimTime upto = std::min(c.end, wait.to);
    if (upto <= t) continue;
    const SimTime slice = upto - t;
    op.comp[static_cast<std::size_t>(wait_component(r, c.cls))] += slice;
    matrix_[static_cast<std::size_t>(op.cls)][static_cast<std::size_t>(
        c.cls)][static_cast<std::size_t>(r)][mode] += slice;
    // Strictly greater: of two equal slices the first charged is the
    // blocker, which is why on_op charges in the controller's leg order.
    if (slice > op.blocked_ns) {
      op.blocked_ns = slice;
      op.blocker_op = c.op;
      op.blocker_cls = c.cls;
      op.blocker_res = r;
    }
    t = upto;
  }
  // Conservation backbone: a horizon always equals the end of the last
  // claim on its resource, so the wait interval must be fully tiled.
  PPSSD_CHECK_MSG(t == wait.to,
                  "attribution: wait interval not covered by claims");
}

void AttributionLedger::push_claim(ClaimDeque& claims, const OpBlame& op,
                                   SimTime end) {
  PPSSD_DCHECK_MSG(claims.empty() || end >= claims.back().end,
                   "attribution: claim ends must be monotone");
  claims.push_back(Claim{end, op.op_id, op.cls});
  if (claims.size() > kMaxClaims) claims.pop_front();
}

void AttributionLedger::on_op(const OpRecord& rec) {
  PPSSD_DCHECK(rec.chip < lane_claims_.size());
  PPSSD_DCHECK(rec.channel < channel_claims_.size());
  OpBlame op;
  op.op_id = rec.id;
  op.cls = rec.cls;
  op.mode = rec.mode;
  op.background = rec.background;
  op.chip = rec.chip;
  op.channel = rec.channel;
  op.ready = rec.ready;
  op.end = rec.end;
  op.comp[static_cast<std::size_t>(Component::kService)] =
      rec.array.length() + rec.transfer.length();
  op.comp[static_cast<std::size_t>(Component::kEcc)] = rec.ecc_ns;

  ClaimDeque& lane = lane_claims_[rec.chip];
  ClaimDeque& erase = erase_claims_[rec.chip];
  ClaimDeque& channel = channel_claims_[rec.channel];
  switch (rec.kind) {
    case FlashOp::kProgram:
      charge(op, channel, Resource::kChannel, rec.channel_wait);
      charge(op, lane, Resource::kLane, rec.lane_wait);
      charge(op, erase, Resource::kErase, rec.erase_wait);
      break;
    case FlashOp::kErase:
      charge(op, erase, Resource::kErase, rec.erase_wait);
      charge(op, lane, Resource::kLane, rec.lane_wait);
      break;
    case FlashOp::kRead:
    case FlashOp::kReprogram:
      charge(op, lane, Resource::kLane, rec.lane_wait);
      charge(op, erase, Resource::kErase, rec.erase_wait);
      charge(op, channel, Resource::kChannel, rec.channel_wait);
      break;
  }
  suspend_saved_ns_ += rec.suspend_saved();
  // An erase advances only the suspendable horizon; every other op the
  // array lane, and reads and programs their channel too.
  push_claim(rec.kind == FlashOp::kErase ? erase : lane, op, rec.array.to);
  if (rec.kind == FlashOp::kRead || rec.kind == FlashOp::kProgram) {
    push_claim(channel, op, rec.transfer.to);
  }

  PPSSD_CHECK_MSG(op.component_sum() == op.end - op.ready,
                  "attribution: op components do not sum to op latency");
  ++ops_;
  last_op_ = op;
  if (request_open_ && !op.background) req_ops_.push_back(op);
}

void AttributionLedger::begin_request(std::uint64_t id, OpType op,
                                      SimTime arrival) {
  PPSSD_DCHECK_MSG(!request_open_,
                   "attribution: begin_request while a request is open");
  request_open_ = true;
  req_ = RequestBlame{};
  req_.id = id;
  req_.op = op;
  req_.arrival = arrival;
  req_ops_.clear();
}

void AttributionLedger::finish_request(SimTime finish) {
  PPSSD_DCHECK_MSG(request_open_,
                   "attribution: finish_request without begin_request");
  request_open_ = false;
  req_.finish = finish;

  // Fold the critical chain backwards from the completion time. Each link
  // is an exact tick equality: an op whose ready exceeds the arrival was
  // released by the op that finished at exactly that tick (the scheduler
  // resolves dependencies to finish times). Foreground ops off the chain
  // did not determine the latency and contribute nothing.
  SimTime t = finish;
  while (t > req_.arrival) {
    const OpBlame* link = nullptr;
    for (auto it = req_ops_.rbegin(); it != req_ops_.rend(); ++it) {
      if (it->end == t) {
        link = &*it;
        break;
      }
    }
    PPSSD_CHECK_MSG(link != nullptr,
                    "attribution: request critical chain broken");
    PPSSD_CHECK_MSG(link->ready >= req_.arrival,
                    "attribution: foreground op ready before arrival");
    for (std::size_t i = 0; i < kComponentCount; ++i) {
      req_.comp[i] += link->comp[i];
    }
    ++req_.fg_ops;
    if (link->blocked_ns > req_.blocked_ns) {
      req_.blocked_ns = link->blocked_ns;
      req_.blocker_op = link->blocker_op;
      req_.blocker_cls = link->blocker_cls;
      req_.blocker_res = link->blocker_res;
      // Resource identity: chip id for lane/erase waits, channel id for
      // channel contention (the blocker shares the blocked op's resource).
      req_.blocker_chip = link->blocker_res == Resource::kChannel
                              ? link->channel
                              : link->chip;
    }
    t = link->ready;  // strictly decreases: every op has positive service
  }

  // The hard invariant: components tile [arrival, finish] exactly.
  PPSSD_CHECK_MSG(req_.component_sum() == req_.finish - req_.arrival,
                  "attribution: conservation invariant violated");

  ++requests_;
  if (tl_component_ms_[0] != nullptr) {
    for (std::size_t i = 0; i < kComponentCount; ++i) {
      tl_component_ms_[i]->observe(static_cast<double>(req_.comp[i]) / 1e6);
    }
  }
  if (keep_records_) records_.push_back(req_);
  if (dump_) write_record(req_);
}

void AttributionLedger::attach_registry(MetricsRegistry* registry,
                                        const std::string& scheme) {
  if (registry == nullptr) {
    for (auto& h : tl_component_ms_) h = nullptr;
    return;
  }
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    tl_component_ms_[i] = registry->histogram(
        "host_latency_component_ms",
        {{"scheme", scheme},
         {"component", component_name(static_cast<Component>(i))}},
        1e-4, 1e5);
  }
  const char* modes[2] = {"slc", "mlc"};
  for (int bg = 0; bg < 4; ++bg) {
    for (int bk = 0; bk < 4; ++bk) {
      for (int m = 0; m < 2; ++m) {
        registry->gauge_fn(
            "attrib_wait_ns",
            {{"scheme", scheme},
             {"blocked", kGroupNames[bg]},
             {"blocker", kGroupNames[bk]},
             {"mode", modes[m]}},
            [this, bg, bk, m]() {
              std::uint64_t sum = 0;
              for (std::size_t i = 0; i < kClassCount; ++i) {
                if (kClassGroup[i] != bg) continue;
                for (std::size_t j = 0; j < kClassCount; ++j) {
                  if (kClassGroup[j] != bk) continue;
                  for (std::size_t r = 0; r < kResourceCount; ++r) {
                    sum += matrix_[i][j][r][m];
                  }
                }
              }
              return static_cast<double>(sum);
            });
      }
    }
  }
  registry->gauge_fn(
      "attrib_suspend_saved_ns", {{"scheme", scheme}},
      [this]() { return static_cast<double>(suspend_saved_ns_); });
}

std::uint64_t AttributionLedger::wait_ns(OpClass blocked, OpClass blocker,
                                         Resource r, CellMode mode) const {
  return matrix_[static_cast<std::size_t>(blocked)][static_cast<std::size_t>(
      blocker)][static_cast<std::size_t>(r)][mode == CellMode::kSlc ? 0 : 1];
}

bool AttributionLedger::open_dump(const std::string& path) {
  close_dump();
  auto f = std::make_unique<std::ofstream>(path, std::ios::binary);
  if (!*f) return false;
  dump_ = std::move(f);
  dump_buf_.clear();
  put_magic(dump_buf_, kLedgerMagic);
  put_u32(dump_buf_, kLedgerVersion);
  put_u32(dump_buf_, static_cast<std::uint32_t>(kComponentCount));
  put_u32(dump_buf_, static_cast<std::uint32_t>(kClassCount));
  put_u32(dump_buf_, kRecordBytes);
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    put_str(dump_buf_, component_name(static_cast<Component>(i)));
  }
  for (std::size_t i = 0; i < kClassCount; ++i) {
    put_str(dump_buf_, class_name(static_cast<OpClass>(i)));
  }
  flush_dump();
  return true;
}

void AttributionLedger::write_record(const RequestBlame& r) {
  const std::size_t at = dump_buf_.size();
  put_u64(dump_buf_, r.id);
  put_u64(dump_buf_, r.arrival);
  put_u64(dump_buf_, r.finish);
  for (SimTime c : r.comp) put_u64(dump_buf_, c);
  put_u32(dump_buf_, r.fg_ops);
  put_u32(dump_buf_, r.blocker_chip);
  put_u64(dump_buf_, r.blocker_op);
  put_u64(dump_buf_, r.blocked_ns);
  put_u8(dump_buf_, static_cast<std::uint8_t>(r.op));
  put_u8(dump_buf_, static_cast<std::uint8_t>(r.blocker_cls));
  put_u8(dump_buf_, static_cast<std::uint8_t>(r.blocker_res));
  put_u8(dump_buf_, 0);
  PPSSD_DCHECK(dump_buf_.size() - at == kRecordBytes);
  if (dump_buf_.size() >= kDumpFlushBytes) flush_dump();
}

void AttributionLedger::flush_dump() {
  if (!dump_ || dump_buf_.empty()) return;
  dump_->write(reinterpret_cast<const char*>(dump_buf_.data()),
               static_cast<std::streamsize>(dump_buf_.size()));
  dump_buf_.clear();
}

void AttributionLedger::close_dump() {
  if (!dump_) return;
  flush_dump();
  dump_->flush();
  dump_.reset();
}

bool load_ledger(const std::string& path, LedgerFile* out,
                 std::string* error) {
  PPSSD_CHECK(out != nullptr);
  *out = LedgerFile{};
  std::string bytes;
  if (!load_file(path, kLedgerMagic, "ledger file", bytes, error)) {
    return false;
  }
  ByteReader r{reinterpret_cast<const unsigned char*>(bytes.data()) + 8,
               bytes.size() - 8};
  out->version = r.u32();
  const std::uint32_t ncomp = r.u32();
  const std::uint32_t nclass = r.u32();
  const std::uint32_t record_bytes = r.u32();
  if (!r.ok || out->version != kLedgerVersion ||
      ncomp != kComponentCount || nclass != kClassCount ||
      record_bytes != kRecordBytes) {
    if (error) *error = "unsupported ledger header";
    return false;
  }
  for (std::uint32_t i = 0; i < ncomp; ++i) {
    out->component_names.push_back(r.str());
  }
  for (std::uint32_t i = 0; i < nclass; ++i) {
    out->class_names.push_back(r.str());
  }
  if (!r.ok) {
    if (error) *error = "truncated ledger header";
    return false;
  }
  // Records to EOF; a truncated tail record (aborted run) is dropped.
  while (r.left >= kRecordBytes) {
    RequestBlame rec;
    rec.id = r.u64();
    rec.arrival = r.u64();
    rec.finish = r.u64();
    for (std::size_t i = 0; i < kComponentCount; ++i) rec.comp[i] = r.u64();
    rec.fg_ops = r.u32();
    rec.blocker_chip = r.u32();
    rec.blocker_op = r.u64();
    rec.blocked_ns = r.u64();
    rec.op = static_cast<OpType>(r.u8());
    rec.blocker_cls = static_cast<OpClass>(r.u8());
    rec.blocker_res = static_cast<Resource>(r.u8());
    (void)r.u8();
    if (!r.ok) break;
    out->records.push_back(rec);
  }
  return true;
}

}  // namespace ppssd::telemetry::attribution
