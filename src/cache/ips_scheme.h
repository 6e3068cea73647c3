// IPS: In-place Switch — reprogramming-based SLC cache promotion
// (arXiv 2409.14360).
//
// Host placement is Baseline-style: every write consumes fresh SLC pages
// in Work blocks, never partial programming, so each cached page stays in
// SLC *frontier state* (exactly one program since erase). That is the
// precondition for the scheme's point: when GC drains the cache, a victim
// page's cells are converted to dense mode by continuing the ISPP pulse
// sequence in place — no page read, no channel transfer, no ECC
// round-trip — instead of the read-migrate-program eviction the other
// schemes pay. The simulator models the conversion as a slot-preserving
// rewrite into a freshly allocated dense page (the mapping layer's view of
// "the cells now hold dense data") priced as a single kReprogram array op,
// with the destination page carrying a sticky BER penalty for the wider
// threshold-voltage distributions reprogramming leaves behind.
//
// `use_reprogram = false` degrades the promotion into the conventional
// read-migrate-program sequence over the *same* slots — the reference
// oracle the equivalence tests lock the reprogram accounting against.
#pragma once

#include "cache/scheme.h"
#include "common/state_io.h"

namespace ppssd::cache {

class IpsScheme final : public Scheme {
 public:
  explicit IpsScheme(const SsdConfig& cfg) : Scheme(cfg) {}

  [[nodiscard]] const char* name() const override { return "IPS"; }

  struct Options {
    /// false -> promote by read-migrate-program over the same slots (the
    /// equivalence oracle; state-identical, timing differs).
    bool use_reprogram = true;

    /// Registry option-bag form (key rpg, value "0"/"1").
    [[nodiscard]] SchemeOptions to_scheme_options() const;
    [[nodiscard]] static Options from_scheme_options(
        const SchemeOptions& opts);
  };
  void set_options(const Options& opts) { opts_ = opts; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Promotion accounting (test/diagnostic use).
  [[nodiscard]] std::uint64_t reprogrammed_pages() const {
    return reprogrammed_pages_;
  }
  [[nodiscard]] std::uint64_t reprogrammed_subpages() const {
    return reprogrammed_subpages_;
  }
  /// Subpages promoted via the defensive read-migrate fallback (a victim
  /// page not in frontier state; cannot happen with IPS placement).
  [[nodiscard]] std::uint64_t fallback_subpages() const {
    return fallback_subpages_;
  }

  /// Base entries plus the cumulative promotion accounting above.
  void inspect(telemetry::introspect::StateSink& sink) const override {
    Scheme::inspect(sink);
    sink.value("reprogrammed_pages", reprogrammed_pages_);
    sink.value("reprogrammed_subpages", reprogrammed_subpages_);
    sink.value("fallback_subpages", fallback_subpages_);
  }

 protected:
  // Placement is the base default, Baseline's: one request per fresh
  // Work page. Never partial-programming is what keeps every cached page
  // in frontier state, i.e. reprogram-eligible.
  void relocate_slc_page(const VictimPage& src, SimTime now,
                         std::vector<PhysOp>& ops) override;
  [[nodiscard]] bool relocation_reads_source() const override {
    return !opts_.use_reprogram;
  }
  [[nodiscard]] const ftl::GcPolicy& slc_policy() const override {
    return greedy_;
  }
  void on_attach_telemetry(telemetry::MetricsRegistry* registry,
                           const telemetry::Labels& labels) override;
  void save_scheme_state(io::StateSink& sink) const override {
    sink.u64(reprogrammed_pages_);
    sink.u64(reprogrammed_subpages_);
    sink.u64(fallback_subpages_);
  }
  void restore_scheme_state(io::StateSource& src) override {
    reprogrammed_pages_ = src.u64();
    reprogrammed_subpages_ = src.u64();
    fallback_subpages_ = src.u64();
  }

 private:
  Options opts_;
  std::uint64_t reprogrammed_pages_ = 0;
  std::uint64_t reprogrammed_subpages_ = 0;
  std::uint64_t fallback_subpages_ = 0;
  // Telemetry handles (null until attached).
  telemetry::Counter* tl_reprogrammed_ = nullptr;
  telemetry::Counter* tl_fallback_ = nullptr;
};

}  // namespace ppssd::cache
