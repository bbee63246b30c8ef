// The virtual tester ("Sentry"): ordered pattern application with
// first-fail recording.
//
// Mirrors the protocol of Section 7: patterns are applied in a fixed
// order; a chip is rejected at the first pattern it fails and sees no
// further patterns; chips that pass everything ship. Because the lot
// generator gives us ground truth, the tester also tallies what the 1981
// experiment could not observe directly: how many *defective* chips
// shipped — the empirical field reject rate that validates Eq. 8.
#pragma once

#include <cstdint>
#include <vector>

#include "bist/result.hpp"
#include "fault/fault_sim.hpp"
#include "wafer/chip_model.hpp"

namespace lsiq::wafer {

/// Per-chip test outcome.
struct ChipOutcome {
  std::int64_t first_fail_pattern = -1;  ///< -1 = passed every pattern
  bool defective = false;                ///< ground truth
};

struct LotTestResult {
  std::vector<ChipOutcome> outcomes;
  std::size_t pattern_count = 0;

  [[nodiscard]] std::size_t chip_count() const noexcept {
    return outcomes.size();
  }
  [[nodiscard]] std::size_t failed_count() const;
  [[nodiscard]] std::size_t passed_count() const;

  /// Defective chips that passed all patterns (escapes).
  [[nodiscard]] std::size_t shipped_defective_count() const;

  /// Escapes / shipped — the measured counterpart of Eq. 8's r(f).
  [[nodiscard]] double empirical_reject_rate() const;

  /// Chips whose first failure happened before `patterns` patterns were
  /// applied (the Table 1 "cumulative number of chips failed" column).
  [[nodiscard]] std::size_t failed_within(std::size_t patterns) const;

  /// failed_within as a fraction of the lot.
  [[nodiscard]] double fraction_failed_within(std::size_t patterns) const;
};

/// One row of a Table-1-style strobe readout (flow::FlowResult::table).
struct StrobeRow {
  double target_coverage = 0.0;   ///< the requested strobe (Table 1 col. 1)
  double actual_coverage = 0.0;   ///< curve value at the strobe pattern
  std::size_t pattern_index = 0;  ///< patterns applied up to the strobe
  std::size_t cumulative_failed = 0;
  double cumulative_fraction = 0.0;
};

/// Test every chip of the lot against an ordered pattern set, using the
/// per-class first-detection indices from a completed fault simulation.
/// A chip's first failing pattern is the earliest first-detection among
/// its resident fault classes (single-fault-detection approximation).
LotTestResult test_lot(const ChipLot& lot,
                       const fault::FaultSimResult& fault_sim,
                       std::size_t pattern_count);

/// BIST mode: the tester clocks the whole session and makes ONE pass/fail
/// decision by comparing the chip's MISR signature against the good one.
/// Under the single-fault-detection approximation a chip fails iff at
/// least one resident fault class is signature-detected — faults the
/// session raw-detects but aliases DO ship, which is exactly the quality
/// loss the BIST analysis quantifies. Failing chips record the session's
/// last pattern as first_fail_pattern (the signature compare happens
/// there; BIST offers no earlier observability), so failed_within() is a
/// step function at the session end.
LotTestResult test_lot_bist(const ChipLot& lot,
                            const bist::BistResult& bist);

}  // namespace lsiq::wafer
