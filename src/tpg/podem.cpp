#include "tpg/podem.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analyze/implication.hpp"
#include "circuit/compiled.hpp"
#include "sim/five_value_sim.hpp"
#include "tpg/scoap.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateId;
using circuit::GateType;
using sim::FiveValue;
using sim::FiveValueSimulator;
using sim::Tri;

namespace {

/// A requested (signal, value) pair to be traced back to a primary input.
struct Objective {
  GateId gate = circuit::kNoGate;
  Tri value = Tri::kX;
};

/// One entry of the PODEM decision stack.
struct Decision {
  std::size_t input_index;
  Tri value;
  bool flipped;  ///< both branches tried?
};

bool x_good(const FiveValueSimulator& simulator, GateId id) {
  return sim::has_x(simulator.value(id));
}

/// Map a gate type onto (core, inverting): NAND -> AND core + inversion etc.
bool inverting_core(GateType type) {
  return type == GateType::kNot || type == GateType::kNand ||
         type == GateType::kNor || type == GateType::kXnor;
}

/// Non-controlling value of the gate's core function (AND -> 1, OR -> 0).
/// XOR has none; 1 is returned as an arbitrary-but-fixed choice.
Tri non_controlling(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
      return Tri::kOne;
    case GateType::kOr:
    case GateType::kNor:
      return Tri::kZero;
    default:
      return Tri::kOne;
  }
}

/// Choose the next objective, or return false when the search state is a
/// dead end that requires backtracking.
bool pick_objective(const FiveValueSimulator& simulator,
                    const Circuit& circuit, Objective& objective) {
  // Phase 1: activation. The good machine must drive the faulted line to
  // the opposite of the stuck value.
  const GateId line = simulator.fault_line();
  const FiveValue line_value = simulator.value(line);
  const Tri sv = simulator.stuck_at_one() ? Tri::kOne : Tri::kZero;
  if (line_value.good == Tri::kX) {
    objective = {line, sim::tri_not(sv)};
    return true;
  }
  if (line_value.good == sv) {
    return false;  // activation impossible under current assignments
  }

  // Phase 2: propagation. Drive one D-frontier gate's unknown side input to
  // its non-controlling value. Prefer the frontier gate closest to an
  // output (highest level) — the classic distance heuristic.
  const std::vector<GateId> frontier = simulator.d_frontier();
  if (frontier.empty()) {
    return false;
  }
  GateId best = frontier.front();
  for (const GateId id : frontier) {
    if (circuit.gate(id).level > circuit.gate(best).level) {
      best = id;
    }
  }
  const Gate& g = circuit.gate(best);
  for (const GateId in : g.fanin) {
    if (x_good(simulator, in)) {
      objective = {in, non_controlling(g.type)};
      return true;
    }
  }
  return false;  // no X side input: frontier gate cannot be sensitized now
}

/// Trace an objective back to an unassigned pattern input, returning the
/// (input index, value) decision to try.
bool backtrace(const FiveValueSimulator& simulator, const Circuit& circuit,
               const TestabilityMeasures* scoap, Objective objective,
               std::size_t& input_index_out, Tri& value_out) {
  GateId id = objective.gate;
  Tri v = objective.value;

  // Difficulty of driving `gate` to `value`: SCOAP controllability when
  // available, logic level otherwise.
  auto cost = [&](GateId gate, Tri value) -> std::uint64_t {
    if (scoap != nullptr) {
      return value == Tri::kZero ? scoap->cc0[gate] : scoap->cc1[gate];
    }
    return circuit.gate(gate).level;
  };

  // Levels strictly decrease along the walk, so this terminates.
  for (;;) {
    const Gate& g = circuit.gate(id);
    if (g.type == GateType::kInput || g.type == GateType::kDff) {
      const auto& inputs = circuit.pattern_inputs();
      const auto it = std::find(inputs.begin(), inputs.end(), id);
      LSIQ_EXPECT(it != inputs.end(), "backtrace: source is not an input");
      input_index_out = static_cast<std::size_t>(it - inputs.begin());
      value_out = v;
      return true;
    }
    if (inverting_core(g.type)) {
      v = sim::tri_not(v);
    }

    // Choose an X fanin. If v is the controlling-side requirement (one
    // input suffices), take the easiest; if every input must comply, take
    // the hardest first to fail fast.
    const bool controlling_request = (v != non_controlling(g.type));
    GateId chosen = circuit::kNoGate;
    for (const GateId in : g.fanin) {
      if (!x_good(simulator, in)) continue;
      if (chosen == circuit::kNoGate) {
        chosen = in;
        continue;
      }
      const std::uint64_t cost_in = cost(in, v);
      const std::uint64_t cost_ch = cost(chosen, v);
      if ((controlling_request && cost_in < cost_ch) ||
          (!controlling_request && cost_in > cost_ch)) {
        chosen = in;
      }
    }
    if (chosen == circuit::kNoGate) {
      return false;  // no X path toward inputs from this objective
    }
    id = chosen;
  }
}

/// Flip the newest unflipped decision (or pop exhausted ones). Returns
/// false when the decision tree is exhausted — the redundancy proof shared
/// by the stuck-at search and the launch justification.
bool backtrack_decision(FiveValueSimulator& simulator,
                        std::vector<Decision>& stack, int& backtracks) {
  ++backtracks;
  while (!stack.empty()) {
    Decision& top = stack.back();
    if (!top.flipped) {
      top.flipped = true;
      top.value = sim::tri_not(top.value);
      simulator.assign_input(top.input_index, top.value);
      simulator.imply();
      return true;
    }
    simulator.assign_input(top.input_index, Tri::kX);
    stack.pop_back();
  }
  simulator.imply();
  return false;  // decision tree exhausted
}

/// Export the test cube and a fully specified pattern from the final
/// simulator state (X bits filled per options).
void export_pattern(const FiveValueSimulator& simulator,
                    const PodemOptions& options, PodemResult& result) {
  const std::size_t input_count =
      simulator.circuit().pattern_inputs().size();
  result.cube.assign(input_count, -1);
  if (result.status != TestStatus::kDetected) return;
  util::Rng fill(options.fill_seed);
  result.pattern.assign(input_count, false);
  for (std::size_t i = 0; i < input_count; ++i) {
    const Tri a = simulator.input_assignment(i);
    if (a == Tri::kX) {
      result.pattern[i] = options.random_fill ? fill.bernoulli(0.5) : false;
    } else {
      result.cube[i] = (a == Tri::kOne) ? 1 : 0;
      result.pattern[i] = (a == Tri::kOne);
    }
  }
}

/// Resolve the implication engine a solve consults: the caller's shared
/// engine when provided, a locally built one otherwise (the optionals give
/// it storage that outlives the search), or none when the knob is off.
const analyze::ImplicationEngine* resolve_engine(
    const Circuit& circuit, const PodemOptions& options,
    std::optional<circuit::CompiledCircuit>& owned_compiled,
    std::optional<analyze::ImplicationEngine>& owned_engine) {
  if (!options.use_implications) return nullptr;
  if (options.implications != nullptr) return options.implications;
  owned_compiled.emplace(circuit);
  owned_engine.emplace(*owned_compiled);
  return &*owned_engine;
}

/// True when some necessary good-machine literal is already implied to the
/// opposite value. Five-valued implication is monotone — a determined rail
/// never changes as more inputs are assigned — so a violation here proves
/// every extension of the current assignment fails, and the subtree can be
/// abandoned without exploring it.
bool necessary_violated(const FiveValueSimulator& simulator,
                        const std::vector<analyze::Literal>& necessary) {
  for (const analyze::Literal lit : necessary) {
    const Tri good = simulator.value(analyze::literal_line(lit)).good;
    if (good == Tri::kX) continue;
    if ((good == Tri::kOne) != analyze::literal_one(lit)) return true;
  }
  return false;
}

}  // namespace

PodemResult generate_test(const Circuit& circuit, const fault::Fault& fault,
                          const PodemOptions& options) {
  LSIQ_EXPECT(circuit.finalized(), "generate_test: circuit not finalized");
  PodemResult result;

  FiveValueSimulator simulator(circuit);
  simulator.set_fault(fault.gate, fault.pin, fault.stuck_at_one);
  simulator.imply();

  // Static implication assist: a contradictory necessary-assignment set is
  // a redundancy proof before the first decision; a consistent set becomes
  // a conflict monitor inside dead_end.
  std::optional<circuit::CompiledCircuit> owned_compiled;
  std::optional<analyze::ImplicationEngine> owned_engine;
  const analyze::ImplicationEngine* engine =
      resolve_engine(circuit, options, owned_compiled, owned_engine);
  std::vector<analyze::Literal> necessary;
  if (engine != nullptr) {
    analyze::NecessaryAssignments assignments =
        engine->necessary_assignments(fault);
    if (assignments.contradictory) {
      result.status = TestStatus::kUntestable;
      export_pattern(simulator, options, result);
      return result;
    }
    necessary = std::move(assignments.literals);
  }

  std::vector<Decision> stack;

  auto dead_end = [&]() {
    // The current assignment cannot be extended to a test.
    if (!simulator.activation_possible()) return true;
    if (simulator.fault_effect_observed()) return false;
    if (necessary_violated(simulator, necessary)) return true;
    const FiveValue line = simulator.value(simulator.fault_line());
    const bool activated = sim::is_d_or_dbar(line) ||
                           (!sim::has_x(line) &&
                            line.good != (simulator.stuck_at_one()
                                              ? Tri::kOne
                                              : Tri::kZero));
    if (activated && simulator.d_frontier().empty()) return true;
    if (activated && !simulator.x_path_exists()) return true;
    return false;
  };

  for (;;) {
    if (simulator.fault_effect_observed()) {
      result.status = TestStatus::kDetected;
      break;
    }
    if (result.backtracks > options.max_backtracks) {
      result.status = TestStatus::kAborted;
      break;
    }

    bool need_backtrack = dead_end();
    Objective objective;
    std::size_t input_index = 0;
    Tri value = Tri::kX;
    if (!need_backtrack) {
      need_backtrack = !pick_objective(simulator, circuit, objective) ||
                       !backtrace(simulator, circuit, options.scoap,
                                  objective, input_index, value);
    }

    if (need_backtrack) {
      if (!backtrack_decision(simulator, stack, result.backtracks)) {
        result.status = TestStatus::kUntestable;
        break;
      }
      continue;
    }

    ++result.decisions;
    stack.push_back(Decision{input_index, value, false});
    simulator.assign_input(input_index, value);
    simulator.imply();
  }

  export_pattern(simulator, options, result);
  return result;
}

PodemResult justify_line(const circuit::Circuit& circuit,
                         circuit::GateId line, Tri value,
                         const PodemOptions& options) {
  LSIQ_EXPECT(circuit.finalized(), "justify_line: circuit not finalized");
  LSIQ_EXPECT(line < circuit.gate_count(), "justify_line: line out of range");
  LSIQ_EXPECT(value != Tri::kX, "justify_line: value must be 0 or 1");
  PodemResult result;

  // The five-valued engine wants an injected fault; pinning the line's
  // faulty rail to the opposite value makes the activation objective —
  // drive the good rail away from the stuck value — exactly the
  // justification objective. Only the good rail is read below.
  FiveValueSimulator simulator(circuit);
  simulator.set_fault(line, -1, /*stuck_at_one=*/value == Tri::kZero);
  simulator.imply();

  // Static implication assist, mirroring generate_test: a contradictory
  // closure of (line = value) proves the line constant at the opposite
  // value; the closure's literals prune decision subtrees that violate one.
  std::optional<circuit::CompiledCircuit> owned_compiled;
  std::optional<analyze::ImplicationEngine> owned_engine;
  const analyze::ImplicationEngine* engine =
      resolve_engine(circuit, options, owned_compiled, owned_engine);
  std::vector<analyze::Literal> necessary;
  if (engine != nullptr) {
    analyze::NecessaryAssignments assignments =
        engine->justification_assignments(line, value == Tri::kOne);
    if (assignments.contradictory) {
      result.status = TestStatus::kUntestable;
      export_pattern(simulator, options, result);
      return result;
    }
    necessary = std::move(assignments.literals);
  }

  std::vector<Decision> stack;
  for (;;) {
    const Tri good = simulator.value(line).good;
    if (good == value) {
      result.status = TestStatus::kDetected;
      break;
    }
    if (result.backtracks > options.max_backtracks) {
      result.status = TestStatus::kAborted;
      break;
    }

    // good is X (keep driving toward the objective) or the opposite value
    // (the current assignments imply the line away — a dead end). A
    // violated necessary literal is the same dead end caught earlier.
    bool need_backtrack =
        good != Tri::kX || necessary_violated(simulator, necessary);
    std::size_t input_index = 0;
    Tri decide = Tri::kX;
    if (!need_backtrack) {
      need_backtrack = !backtrace(simulator, circuit, options.scoap,
                                  Objective{line, value}, input_index,
                                  decide);
    }
    if (need_backtrack) {
      if (!backtrack_decision(simulator, stack, result.backtracks)) {
        // Exhausted: no input pattern drives the line to `value` — the
        // line is constant at the opposite value.
        result.status = TestStatus::kUntestable;
        break;
      }
      continue;
    }

    ++result.decisions;
    stack.push_back(Decision{input_index, decide, false});
    simulator.assign_input(input_index, decide);
    simulator.imply();
  }

  export_pattern(simulator, options, result);
  return result;
}

TransitionTestResult generate_transition_test(const circuit::Circuit& circuit,
                                              const fault::Fault& fault,
                                              const PodemOptions& options) {
  LSIQ_EXPECT(circuit.finalized(),
              "generate_transition_test: circuit not finalized");
  TransitionTestResult result;

  // Launch first: justification is the cheaper solve, and its failure is
  // the stronger statement — the transition itself can never occur. The
  // pre-transition value is the capture stuck value (slow-to-rise
  // launches at 0, slow-to-fall at 1); the launch condition lives on the
  // fault's line (the driving stem for a branch fault), matching
  // fault_model::launch_mask's gating.
  const circuit::GateId line = fault::fault_line(circuit, fault);
  const Tri launch_value = fault.stuck_at_one ? Tri::kOne : Tri::kZero;

  // Both halves consult the implication engine; build it once here rather
  // than once per half when the caller did not share one.
  std::optional<circuit::CompiledCircuit> owned_compiled;
  std::optional<analyze::ImplicationEngine> owned_engine;
  PodemOptions shared_options = options;
  shared_options.implications =
      resolve_engine(circuit, options, owned_compiled, owned_engine);

  PodemOptions launch_options = shared_options;
  // Decorrelate the two patterns' X-fill so launch == capture only where
  // the cubes require it.
  launch_options.fill_seed = options.fill_seed ^ 0x9e3779b97f4a7c15ULL;
  const PodemResult launch =
      justify_line(circuit, line, launch_value, launch_options);
  result.backtracks = launch.backtracks;
  result.decisions = launch.decisions;
  if (launch.status != TestStatus::kDetected) {
    result.status = launch.status;
    if (launch.status == TestStatus::kUntestable) {
      result.untestable_reason = UntestableReason::kLaunch;
    }
    return result;
  }

  // Capture: under the gross-delay abstraction the fault behaves as the
  // matching stuck-at on the capture pattern, and the Fault record IS
  // that stuck-at in the fault_model encoding — plain PODEM solves it.
  const PodemResult capture = generate_test(circuit, fault, shared_options);
  result.backtracks += capture.backtracks;
  result.decisions += capture.decisions;
  if (capture.status != TestStatus::kDetected) {
    result.status = capture.status;
    if (capture.status == TestStatus::kUntestable) {
      result.untestable_reason = UntestableReason::kCapture;
    }
    return result;
  }

  result.status = TestStatus::kDetected;
  result.launch = launch.pattern;
  result.capture = capture.pattern;
  result.launch_cube = launch.cube;
  result.capture_cube = capture.cube;
  return result;
}

}  // namespace lsiq::tpg
