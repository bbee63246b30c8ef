#include "sim/parallel_sim.hpp"

#include <atomic>

#include "util/error.hpp"

namespace lsiq::sim {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateId;
using circuit::GateType;

namespace {

std::uint64_t eval_from_operands(GateType type, const std::uint64_t* ops,
                                 std::size_t count) {
  switch (type) {
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kBuf:
      return ops[0];
    case GateType::kNot:
      return ~ops[0];
    case GateType::kAnd:
    case GateType::kNand: {
      std::uint64_t acc = ops[0];
      for (std::size_t i = 1; i < count; ++i) acc &= ops[i];
      return type == GateType::kNand ? ~acc : acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      std::uint64_t acc = ops[0];
      for (std::size_t i = 1; i < count; ++i) acc |= ops[i];
      return type == GateType::kNor ? ~acc : acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      std::uint64_t acc = ops[0];
      for (std::size_t i = 1; i < count; ++i) acc ^= ops[i];
      return type == GateType::kXnor ? ~acc : acc;
    }
    case GateType::kInput:
    case GateType::kDff:
      break;
  }
  throw Error("eval_gate_word: sources are assigned, not evaluated");
}

}  // namespace

std::uint64_t eval_gate_word(const Circuit& circuit, GateId id,
                             const std::vector<std::uint64_t>& values) {
  const Gate& g = circuit.gate(id);
  std::uint64_t small[8];
  if (g.fanin.size() <= 8) {
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      small[i] = values[g.fanin[i]];
    }
    return eval_from_operands(g.type, small, g.fanin.size());
  }
  std::vector<std::uint64_t> ops(g.fanin.size());
  for (std::size_t i = 0; i < g.fanin.size(); ++i) {
    ops[i] = values[g.fanin[i]];
  }
  return eval_from_operands(g.type, ops.data(), ops.size());
}

std::uint64_t eval_gate_word_with_pin(const Circuit& circuit, GateId id,
                                      const std::vector<std::uint64_t>& values,
                                      int pin, std::uint64_t forced) {
  const Gate& g = circuit.gate(id);
  LSIQ_EXPECT(pin >= 0 && static_cast<std::size_t>(pin) < g.fanin.size(),
              "eval_gate_word_with_pin: pin out of range");
  std::uint64_t small[8];
  if (g.fanin.size() <= 8) {
    for (std::size_t i = 0; i < g.fanin.size(); ++i) {
      small[i] = (static_cast<int>(i) == pin) ? forced : values[g.fanin[i]];
    }
    return eval_from_operands(g.type, small, g.fanin.size());
  }
  std::vector<std::uint64_t> ops(g.fanin.size());
  for (std::size_t i = 0; i < g.fanin.size(); ++i) {
    ops[i] = (static_cast<int>(i) == pin) ? forced : values[g.fanin[i]];
  }
  return eval_from_operands(g.type, ops.data(), ops.size());
}

ParallelSimulator::ParallelSimulator(const Circuit& circuit)
    : ParallelSimulator(
          std::make_shared<const circuit::CompiledCircuit>(circuit)) {}

ParallelSimulator::ParallelSimulator(
    std::shared_ptr<const circuit::CompiledCircuit> compiled)
    : compiled_([&] {
        // Checked before any member initializer dereferences the pointer.
        LSIQ_EXPECT(compiled != nullptr,
                    "ParallelSimulator requires a compiled circuit");
        return std::move(compiled);
      }()),
      // One extra word: the trailing block-epoch stamp (see
      // next_block_epoch()).
      values_(compiled_->node_count() + 1, 0) {}

std::uint64_t ParallelSimulator::next_block_epoch() {
  // Relaxed is enough: the stamp is data, not a synchronization edge. The
  // grading pass publishes each stored block to its lanes with a release
  // store of its block frontier. Epoch 0 is never handed out, so a
  // zero-initialized buffer can never pass a stamp comparison by accident.
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ParallelSimulator::simulate_block(
    const std::vector<std::uint64_t>& input_words) {
  const auto& inputs = compiled_->pattern_inputs();
  LSIQ_EXPECT(input_words.size() == inputs.size(),
              "simulate_block: one word per pattern input required");
  std::uint64_t* values = values_.data();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    values[inputs[i]] = input_words[i];
  }
  compiled_->eval_suffix(0, values);
  values_[compiled_->node_count()] = next_block_epoch();
}

std::uint64_t ParallelSimulator::value(GateId id) const {
  LSIQ_EXPECT(id < compiled_->node_count(), "value: gate id out of range");
  return values_[id];
}

std::vector<std::uint64_t> ParallelSimulator::observed_values() const {
  const auto& points = compiled_->observed_points();
  std::vector<std::uint64_t> out;
  out.reserve(points.size());
  for (const GateId id : points) {
    out.push_back(values_[id]);
  }
  return out;
}

std::vector<bool> ParallelSimulator::simulate_single(
    const std::vector<bool>& inputs) {
  const auto& pattern_inputs = compiled_->pattern_inputs();
  LSIQ_EXPECT(inputs.size() == pattern_inputs.size(),
              "simulate_single: wrong input count");
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? 1ULL : 0ULL;
  }
  simulate_block(words);
  std::vector<bool> out;
  out.reserve(compiled_->observed_points().size());
  for (const GateId id : compiled_->observed_points()) {
    out.push_back((values_[id] & 1ULL) != 0);
  }
  return out;
}

}  // namespace lsiq::sim
