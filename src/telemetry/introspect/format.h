// Device-state introspection: binary snapshot streams and the crash
// flight recorder.
//
// This header is the *format* layer: record structs, the StateSink that
// schemes fill from their `inspect()` hook, the append-mode stream
// writer, the truncation-tolerant loaders, and the fixed-size event ring
// the controller and GC driver feed. Like the attribution ledger, it
// sees only common/ types — the walker that knows FlashArray /
// BlockManager / Scheme lives one layer up (telemetry/introspect/
// snapshotter.h, library ppssd_introspect), so ppssd_telemetry keeps its
// common-only dependency edge.
//
// Snapshot file layout (little-endian, magic "PPSSDSNP"): a file is a
// sequence of *streams*, one per Snapshotter::bind() — the writer opens
// the file in append mode, so sequential experiment cells sharing one
// PPSSD_SNAPSHOT_PATH each contribute their own stream. Each stream is
//
//   magic(8) version(u32) header_len(u32) header_payload
//   { frame } *
//
// where header_payload names the scheme and pins the geometry
// (total_blocks, planes, subpages/page, SLC blocks/plane, GC
// thresholds), and each frame is
//
//   kFrameMarker(u32) payload_len(u32) payload
//   payload = time(u64) seq(u32)
//             BlockRecord * total_blocks        (kBlockRecordBytes each)
//             PlaneRecord * planes              (kPlaneRecordBytes each)
//             kv_count(u32) { name(str) tag(u8) value(u64/f64) } *
//
// The loader reads complete prefixes: a frame (or trailing stream
// header) cut off mid-record — an aborted run — is dropped, everything
// before it loads. Same contract as the PPSSDALG ledger loader.
//
// Flight dump layout (magic "PPSSDFLT"): header + fixed-size events,
// oldest first; the loader is truncation-tolerant the same way.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ppssd::telemetry::introspect {

inline constexpr char kSnapshotMagic[9] = "PPSSDSNP";
inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::uint32_t kFrameMarker = 0x454d5246;  // "FRME"
inline constexpr std::uint32_t kBlockRecordBytes = 20;
inline constexpr std::uint32_t kPlaneRecordBytes = 10;

inline constexpr char kFlightMagic[9] = "PPSSDFLT";
inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::uint32_t kFlightEventBytes = 26;

/// Per-block state at frame time, as the walker read it out of the
/// array's running aggregates (no page walk except the reprogram marks).
struct BlockState {
  std::uint32_t erase_count = 0;
  std::uint32_t valid_subpages = 0;
  std::uint32_t invalid_subpages = 0;
  std::uint16_t write_frontier = 0;      // pages programmed so far
  std::uint16_t pages = 0;               // page count for the block's mode
  std::uint16_t reprogrammed_pages = 0;  // sticky IPS promotion marks
  std::uint8_t mode = 0;                 // CellMode
  std::uint8_t level = 0;                // BlockLevel
};

/// Per-(plane,mode) GC pressure at frame time.
struct PlaneState {
  std::uint32_t free_slc = 0;
  std::uint32_t free_mlc = 0;
  std::uint8_t pressure_slc = 0;  // needs_gc(plane, SLC)
  std::uint8_t pressure_mlc = 0;  // needs_gc(plane, MLC)
};

/// Stream identity: which scheme produced it, over which geometry.
struct StreamInfo {
  std::string scheme;
  std::uint32_t total_blocks = 0;
  std::uint32_t planes = 0;
  std::uint32_t subpages_per_page = 0;
  std::uint32_t slc_blocks_per_plane = 0;
  std::uint32_t slc_gc_threshold = 0;  // blocks, per plane
  std::uint32_t mlc_gc_threshold = 0;
};

/// Named scalar collector handed to Scheme::inspect(): schemes append
/// their occupancy/side-table figures here and the writer serialises
/// them into the frame's key/value section. Names should be stable —
/// tools key on them ("mapped_lsns", "slc_cached_subpages", ...).
class StateSink {
 public:
  struct Entry {
    std::string name;
    bool is_float = false;
    std::uint64_t u = 0;
    double d = 0.0;
  };

  void value(std::string_view name, std::uint64_t v) {
    entries_.push_back(Entry{std::string(name), false, v, 0.0});
  }
  void value(std::string_view name, double v) {
    entries_.push_back(Entry{std::string(name), true, 0, v});
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Entry by name, or nullptr (linear scan; frames carry few entries).
  [[nodiscard]] const Entry* find(std::string_view name) const;
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

/// Append-mode stream writer. One begin_stream() per bound device;
/// write_frame() serialises and flushes (so the crash hook always finds
/// every completed frame on disk).
class SnapshotWriter {
 public:
  SnapshotWriter() = default;
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Open `path` for appending. Returns false (and stays closed) on I/O
  /// failure.
  bool open(const std::string& path);
  [[nodiscard]] bool is_open() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  void begin_stream(const StreamInfo& info);

  /// Scheme key/value section of the next frame; cleared by write_frame.
  [[nodiscard]] StateSink& sink() { return sink_; }

  void write_frame(SimTime now, const std::vector<BlockState>& blocks,
                   const std::vector<PlaneState>& planes);

  [[nodiscard]] std::uint64_t frames_written() const { return frames_; }
  void flush();

 private:
  std::ofstream out_;
  std::string path_;
  StateSink sink_;
  std::vector<unsigned char> buf_;
  std::uint32_t seq_ = 0;
  std::uint64_t frames_ = 0;
};

struct SnapshotFrame {
  SimTime time = 0;
  std::uint32_t seq = 0;
  std::vector<BlockState> blocks;
  std::vector<PlaneState> planes;
  StateSink values;
};

struct SnapshotStream {
  StreamInfo info;
  std::vector<SnapshotFrame> frames;
};

struct SnapshotFile {
  std::vector<SnapshotStream> streams;
  /// Bytes of a trailing stream header or frame that arrived incomplete
  /// (aborted run); informational.
  std::uint64_t truncated_bytes = 0;
};

/// Load every complete stream/frame of `path`. Returns false only when
/// the file cannot be read at all or its first bytes are not a snapshot
/// stream; a truncated tail loads as the complete prefix.
[[nodiscard]] bool load_snapshots(const std::string& path, SnapshotFile* out,
                                  std::string* error);

// ---- flight recorder ----------------------------------------------------

enum class FlightEventKind : std::uint8_t {
  kOpBegin = 1,       // PhysOp accepted by the controller (time = ready)
  kOpFinish = 2,      // its computed completion time
  kGcDecision = 3,    // victim committed (id = victim block, a = plane)
  kEraseSuspend = 4,  // foreground op preempted an in-progress erase
  kCheckFailure = 5,  // appended by the crash hook before dumping
};

[[nodiscard]] const char* flight_event_name(FlightEventKind kind);

struct FlightEvent {
  SimTime time = 0;      // sim time of the event
  std::uint64_t id = 0;  // op sequence number / victim block id
  std::uint32_t a = 0;   // chip or plane
  std::uint32_t b = 0;   // channel, free-block count, saved ns, ...
  FlightEventKind kind = FlightEventKind::kOpBegin;
  /// For op events: (PhysOp::Kind << 2) | (CellMode << 1) | background.
  std::uint8_t detail = 0;
};

/// Fixed-size ring of recent controller/GC events. Pure memory writes on
/// the record path; never allocates after construction, so the crash
/// hook can dump it from inside a failing PPSSD_CHECK.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::uint32_t capacity);

  void record(const FlightEvent& ev) {
    ring_[static_cast<std::size_t>(head_ % ring_.size())] = ev;
    ++head_;
  }

  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ring_.size());
  }
  /// Total events ever recorded (>= capacity once the ring wrapped).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// Write the ring to `path` (overwrite). Returns false on I/O failure.
  bool dump(const std::string& path) const;

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t head_ = 0;
};

struct FlightFile {
  std::uint32_t version = 0;
  std::uint32_t capacity = 0;
  std::uint64_t recorded = 0;  // total ever recorded at dump time
  std::vector<FlightEvent> events;
};

/// Load a flight dump; a truncated tail event is dropped (complete
/// prefix loads), mirroring the snapshot and ledger loaders.
[[nodiscard]] bool load_flight(const std::string& path, FlightFile* out,
                               std::string* error);

// ---- environment knobs --------------------------------------------------

/// Introspection env knobs (read by from_env; all optional):
///
///   PPSSD_SNAPSHOT=ms        snapshot interval in sim-time milliseconds
///   PPSSD_SNAPSHOT_PATH=f    snapshot stream file (default
///                            ppssd_snapshots.bin, append mode)
///   PPSSD_FLIGHT=n           flight-recorder ring capacity in events
///   PPSSD_FLIGHT_PATH=f      crash/finish dump target (default
///                            ppssd_flight.bin; core::run_experiment
///                            inserts the cell before the extension)
///
/// 0 turns either feature off. A value that does not parse in full, a
/// negative or non-finite interval, and a capacity above UINT32_MAX exit
/// 2 with one line naming the knob (common/knob.h).
struct IntrospectOptions {
  SimTime snapshot_every_ns = 0;  // 0 = snapshots off
  std::string snapshot_path = "ppssd_snapshots.bin";
  std::uint32_t flight_capacity = 0;  // 0 = flight recorder off
  std::string flight_path = "ppssd_flight.bin";

  [[nodiscard]] bool any() const {
    return snapshot_every_ns > 0 || flight_capacity > 0;
  }

  [[nodiscard]] static IntrospectOptions from_env();
};

}  // namespace ppssd::telemetry::introspect
