// Test oracles built on the reference engine's faulty machine
// (fault::simulate_faulty_block_full): every gate of the plain Circuit
// re-evaluated with the fault injected. They share no code with the
// compiled view or the stem-region kernel they check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"

namespace lsiq::fault::reference {

/// Per observed point, the lanes of one block in which `fault` makes the
/// point differ from the good machine. `input_words` drives the block's
/// pattern inputs and `good` holds its good-machine value of every gate.
/// A DFF D-pin fault errs only at its flip-flop's scan capture, which
/// sees the stuck value.
inline std::vector<std::uint64_t> point_diffs(
    const circuit::Circuit& c, const Fault& fault,
    const std::vector<std::uint64_t>& input_words,
    const std::vector<std::uint64_t>& good) {
  const std::vector<std::uint64_t> faulty =
      simulate_faulty_block_full(c, fault, input_words);
  const auto& points = c.observed_points();
  const std::size_t num_po = c.primary_outputs().size();
  const bool dff_pin_fault = !is_stem(fault) &&
                             c.gate(fault.gate).type == circuit::GateType::kDff;
  std::vector<std::uint64_t> diffs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::uint64_t value = faulty[points[i]];
    if (dff_pin_fault && i >= num_po &&
        c.flip_flops()[i - num_po] == fault.gate) {
      value = fault.stuck_at_one ? ~0ULL : 0ULL;
    }
    diffs[i] = value ^ good[points[i]];
  }
  return diffs;
}

/// The OR of point_diffs: the lanes in which some observed point errs.
inline std::uint64_t detect_word(const circuit::Circuit& c,
                                 const Fault& fault,
                                 const std::vector<std::uint64_t>& input_words,
                                 const std::vector<std::uint64_t>& good) {
  std::uint64_t detect = 0;
  for (const std::uint64_t d : point_diffs(c, fault, input_words, good)) {
    detect |= d;
  }
  return detect;
}

/// Launch word of a transition fault over block b of a program whose
/// good-machine blocks are `good_blocks`: bit p set when the fault line's
/// good value at pattern p - 1 is the pre-transition value (1 for
/// slow-to-fall, 0 for slow-to-rise). The program's first pattern has no
/// launch.
inline std::uint64_t launch_word(
    const circuit::Circuit& c, const Fault& fault,
    const std::vector<std::vector<std::uint64_t>>& good_blocks,
    std::size_t b) {
  const circuit::GateId line = fault_line(c, fault);
  const std::uint64_t previous =
      (good_blocks[b][line] << 1) |
      (b > 0 ? good_blocks[b - 1][line] >> 63 : 0);
  std::uint64_t launch = fault.stuck_at_one ? previous : ~previous;
  if (b == 0) launch &= ~1ULL;
  return launch;
}

}  // namespace lsiq::fault::reference
