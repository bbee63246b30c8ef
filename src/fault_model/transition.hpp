// Two-pattern (launch/capture) detection semantics for transition faults.
//
// A transition fault on line L is detected by the pattern PAIR (i-1, i):
// pattern i-1 sets L to the pre-transition value (the LAUNCH: 0 for
// slow-to-rise, 1 for slow-to-fall), and pattern i both drives the
// transition and propagates the late value to an observed point (the
// CAPTURE). Under the gross-delay abstraction the line holds its old value
// through the capture cycle, so the capture pattern sees exactly the
// corresponding stuck-at fault: slow-to-rise captures as stuck-at-0,
// slow-to-fall as stuck-at-1. Detection therefore factors into
//
//     detect_transition(i) = detect_stuck_at_capture(i) AND launch(i-1)
//
// which is what lets every existing stuck-at kernel grade transition
// faults: the engines compute the capture detect word as usual and AND in
// a launch word derived purely from GOOD-machine values — the faulty
// machine never influences the launch condition, so the gating is
// identical for every engine and thread count by construction.
//
// Pattern sources are reinterpreted as consecutive-pair sequences: pattern
// i-1 launches what pattern i captures, for every i >= 1 (LFSR programs,
// explicit sets and pattern files need no repetition or reordering). The
// program's very first pattern has no launch predecessor and can never
// detect a transition fault; launch_mask masks that lane out. The word
// boundary — pattern 64b capturing what pattern 64b-1 launched — is
// handled by carrying each gate's lane-63 good value from the previous
// block into lane 0.
#pragma once

#include <cstdint>

#include "circuit/netlist.hpp"

namespace lsiq::fault_model {

/// Launch mask for a transition fault on `line`: lanes whose preceding
/// pattern held the pre-transition value (0 for slow-to-rise, 1 for
/// slow-to-fall). `good` is block b's good-machine value array and
/// `previous` block b-1's, whose lane 63 launches lane 0; nullptr marks
/// the program's first block, whose lane 0 has no launch pattern.
[[nodiscard]] inline std::uint64_t launch_mask(
    circuit::GateId line, bool slow_to_fall, const std::uint64_t* good,
    const std::uint64_t* previous) {
  if (previous == nullptr) {
    const std::uint64_t before = good[line] << 1;
    return (slow_to_fall ? before : ~before) & ~1ULL;
  }
  const std::uint64_t before = (good[line] << 1) | (previous[line] >> 63);
  return slow_to_fall ? before : ~before;
}

}  // namespace lsiq::fault_model
