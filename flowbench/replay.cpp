// The traced replay of run_spec_with_retry + flow::run (flow/batch.cpp,
// flow/flow.cpp), call for call. Keep it in step with flow::run: the
// verification phase fails the run when a replayed record differs from
// the untraced one.
#include "replay.hpp"

#include <algorithm>
#include <exception>
#include <optional>

#include "bist/session.hpp"
#include "core/fault_distribution.hpp"
#include "fault/shard.hpp"
#include "fault/strobe.hpp"
#include "fault_model/universe.hpp"
#include "flow/flow.hpp"
#include "flow/spec_io.hpp"
#include "util/error.hpp"
#include "wafer/chip_model.hpp"

namespace flowbench {

namespace {

using namespace lsiq;

/// The spans of one replayed spec: a tree, kept in memory until the spec
/// ends.
class Trace {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };

  int open(const char* name) {
    spans_.push_back({name, Clock::now(), {}, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    spans_[index].end = Clock::now();
    current_ = spans_[index].parent;
  }

  /// Add every span's self time to `sums` under its name. The root's self
  /// time is "flow.glue": its wall time minus the union of its children.
  /// "trace.accounted" sums the layer self times plus glue, which equals
  /// the root's wall time unless sibling spans overlap; a spec where it
  /// does not is counted in "n.unaccounted_specs".
  void account(LayerSums& sums) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    std::vector<std::pair<Clock::time_point, Clock::time_point>> top;
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      child_ms[span.parent] += ms_between(span.start, span.end);
      if (span.parent == 0) top.emplace_back(span.start, span.end);
    }
    double self_total = 0.0;
    for (std::size_t i = 1; i < spans_.size(); ++i) {
      const double self =
          ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
      sums.add(spans_[i].name, self);
      self_total += self;
    }
    std::sort(top.begin(), top.end());
    double covered = 0.0;
    Clock::time_point reach = spans_[0].start;
    for (const auto& [start, end] : top) {
      const Clock::time_point from = std::max(start, reach);
      if (end > from) covered += ms_between(from, end);
      reach = std::max(reach, end);
    }
    const double wall = ms_between(spans_[0].start, spans_[0].end);
    sums.add("flow.spec", wall);
    sums.add("flow.glue", wall - covered);
    sums.add("trace.accounted", self_total + wall - covered);
    if (self_total - covered > 1e-6 * wall) sums.add("n.unaccounted_specs", 1);
  }

  [[nodiscard]] double root_ms() const {
    return ms_between(spans_[0].start, spans_[0].end);
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Trace& trace, const char* name)
      : trace_(trace), index_(trace.open(name)) {}
  ~Scope() { trace_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& trace_;
  int index_;
};

std::shared_ptr<const ReplayCache::Artifacts> artifacts_for(
    ReplayCache& cache, const std::string& circuit_name,
    fault_model::FaultModel model, Trace& trace, LayerSums& sums) {
  const Scope scope(trace, "batch.cache");
  const std::pair<std::string, int> key(circuit_name,
                                        static_cast<int>(model));
  const std::lock_guard<std::mutex> lock(cache.mutex);
  const auto it = cache.entries.find(key);
  if (it != cache.entries.end()) return it->second;
  auto built = std::make_shared<ReplayCache::Artifacts>();
  {
    const Scope build(trace, "circuit.build");
    built->circuit = std::make_unique<const circuit::Circuit>(
        flow::circuit_from_name(circuit_name));
  }
  {
    const Scope universe(trace, "fault_model.universe");
    built->faults = std::make_unique<const fault::FaultList>(
        fault_model::universe(*built->circuit, model));
  }
  {
    const Scope compile(trace, "circuit.compile");
    built->compiled =
        std::make_shared<const circuit::CompiledCircuit>(*built->circuit);
  }
  sums.add("n.builds", 1);
  sums.add("n.gates", static_cast<double>(built->circuit->gate_count()));
  sums.add("n.universe_classes",
           static_cast<double>(built->faults->class_count()));
  cache.entries.emplace(key, built);
  return built;
}

/// flow::run's grading step for full/progressive observation.
fault::FaultSimResult grade(const fault::FaultList& faults,
                            const flow::FlowSpec& spec,
                            const sim::PatternSet& patterns,
                            const std::shared_ptr<const circuit::CompiledCircuit>& compiled);

}  // namespace

flow::BatchRecord replay_spec(const std::string& path, ReplayCache& cache,
                              LayerSums& sums, double* spec_ms) {
  flow::BatchRecord record;
  record.spec = path;
  record.attempts = 1;
  flow::FlowResult result;
  Trace trace;
  const int root = trace.open("flow.spec");
  try {
    record.hash = flow::hash_spec_file(path);
    flow::SpecFile file;
    {
      const Scope scope(trace, "flow.read_spec");
      file = flow::read_spec_file(path);
    }
    if (file.circuit.empty()) {
      throw Error("spec file names no circuit", ErrorCode::kInvalidSpec);
    }
    flow::validate_or_throw(file.spec);
    const flow::FlowSpec& spec = file.spec;
    const fault_model::FaultModel model =
        *fault_model::fault_model_from_name(spec.fault_model.kind);
    const std::shared_ptr<const ReplayCache::Artifacts> artifacts =
        artifacts_for(cache, file.circuit, model, trace, sums);
    const fault::FaultList& faults = *artifacts->faults;

    flow::validate_or_throw(spec);
    result.spec = spec;
    flow::CheckOutcome gate;
    {
      const Scope scope(trace, "analyze.gate");
      gate = flow::check_detailed(faults, spec);
    }
    sums.add("n.diagnostics", static_cast<double>(gate.diagnostics.size()));
    sums.add("n.redundant_classes",
             static_cast<double>(gate.statically_redundant_classes));
    result.lint = std::move(gate.diagnostics);
    result.statically_redundant_classes = gate.statically_redundant_classes;
    result.statically_redundant_faults = gate.statically_redundant_faults;

    {
      const Scope scope(trace, "tpg.patterns");
      result.patterns = flow::make_patterns(faults, spec.source, &result.atpg);
    }
    LSIQ_EXPECT(!result.patterns.empty(),
                "flow: the pattern source produced no patterns");
    if (model == fault_model::FaultModel::kTransition &&
        result.patterns.size() < 2) {
      throw Error("flow: transition grading needs at least 2 patterns",
                  ErrorCode::kInvalidSpec);
    }
    const std::size_t pattern_count = result.patterns.size();
    sums.add("n.program_patterns", static_cast<double>(pattern_count));
    if (result.atpg.has_value()) {
      sums.add("n.decisions", static_cast<double>(result.atpg->total_decisions));
      sums.add("n.backtracks",
               static_cast<double>(result.atpg->total_backtracks));
      sums.add("n.aborted", static_cast<double>(result.atpg->aborted_classes));
    }

    if (spec.observe.kind == "misr") {
      const Scope scope(trace, "bist.session");
      bist::BistConfig config;
      config.misr_width = spec.observe.misr_width;
      config.misr_taps = spec.observe.misr_taps;
      config.num_threads =
          spec.engine.kind == "ppsfp" ? 1 : spec.engine.num_threads;
      config.compiled = artifacts->compiled;
      const bist::BistSession session(faults, result.patterns, config);
      result.bist = session.run();
      result.curve = result.bist->signature_curve(faults);
    } else {
      {
        const Scope scope(trace, "fault.grade");
        result.fault_sim =
            grade(faults, spec, result.patterns, artifacts->compiled);
        result.curve = result.fault_sim->curve(faults, pattern_count);
      }
      sums.add("n.grade_class_patterns",
               static_cast<double>(faults.class_count() * pattern_count));
      sums.add("n.grade_detected",
               static_cast<double>(result.fault_sim->detected_classes));
      sums.add("n.grade_classes", static_cast<double>(faults.class_count()));
    }
    if (result.bist.has_value()) {
      sums.add("n.aliased",
               static_cast<double>(result.bist->aliased_classes.size()));
    }

    if (spec.lot.chip_count > 0 || spec.lot.physical.has_value()) {
      const Scope scope(trace, "wafer.lot");
      if (spec.lot.physical.has_value()) {
        result.lot = wafer::generate_physical_lot(faults, *spec.lot.physical);
      } else {
        const quality::FaultDistribution distribution(spec.lot.yield,
                                                      spec.lot.n0);
        result.lot = wafer::generate_lot(faults, distribution,
                                         spec.lot.chip_count, spec.lot.seed);
      }
      result.test = result.bist.has_value()
                        ? wafer::test_lot_bist(*result.lot, *result.bist)
                        : wafer::test_lot(*result.lot, *result.fault_sim,
                                          pattern_count);
      for (const double target : spec.analysis.strobe_coverages) {
        if (!result.curve->reaches(target)) {
          throw Error("flow: pattern set never reaches coverage " +
                          std::to_string(target),
                      ErrorCode::kInvalidSpec);
        }
        const std::size_t t = result.curve->patterns_for_coverage(target);
        wafer::StrobeRow row;
        row.target_coverage = target;
        row.actual_coverage = result.curve->coverage_after(t);
        row.pattern_index = t;
        row.cumulative_failed = result.test->failed_within(t);
        row.cumulative_fraction = result.test->fraction_failed_within(t);
        result.table.push_back(row);
      }
    }

    {
      const Scope scope(trace, "core.characterize");
      const quality::CharacterizationMethod method =
          *quality::characterization_method_from_name(spec.analysis.method);
      if (method == quality::CharacterizationMethod::kGiven) {
        result.analyzer = quality::QualityAnalyzer(spec.lot.yield, spec.lot.n0);
      } else {
        result.analyzer = quality::QualityAnalyzer::from_lot_data(
            result.points(), spec.lot.yield, method);
      }
    }

    record.status = "ok";
    record.patterns = pattern_count;
    record.classes = faults.class_count();
    record.coverage = result.curve->final_coverage();
    const double delivered = result.bist.has_value()
                                 ? result.bist->signature_coverage
                                 : record.coverage;
    record.dppm = result.analyzer->dppm(delivered);
  } catch (const Error& e) {
    record.status = "failed";
    record.error_code = e.code();
    record.error = e.what();
  } catch (const std::exception& e) {
    record.status = "failed";
    record.error_code = ErrorCode::kUnknown;
    record.error = e.what();
  }
  trace.close(root);
  trace.account(sums);
  sums.add("n.specs", 1);
  *spec_ms = trace.root_ms();

  // The text report is what lsiq_flow prints; it is timed on its own,
  // outside the spec's wall time, because the batch unit of work does not
  // produce it.
  if (record.status == "ok") {
    const Clock::time_point start = Clock::now();
    const std::string report = result.report();
    sums.add("flow.report", ms_between(start, Clock::now()));
  }
  return record;
}

namespace {

fault::FaultSimResult grade(const fault::FaultList& faults,
                            const flow::FlowSpec& spec,
                            const sim::PatternSet& patterns,
                            const std::shared_ptr<const circuit::CompiledCircuit>& compiled) {
  std::optional<fault::StrobeSchedule> schedule;
  if (spec.observe.kind == "progressive") {
    schedule = fault::StrobeSchedule::progressive(
        faults.circuit().observed_points().size(), spec.observe.strobe_step);
  }
  const fault::StrobeSchedule* strobes =
      schedule.has_value() ? &*schedule : nullptr;
  const flow::EngineSpec& engine = spec.engine;
  if (engine.kind == "serial") {
    return fault::simulate_serial(faults, patterns, strobes);
  }
  if (engine.kind == "ppsfp") {
    return fault::simulate_ppsfp(faults, patterns, strobes, compiled,
                                 engine.grade_width);
  }
  if (engine.kind == "sharded") {
    fault::ShardedOptions options;
    options.shards = engine.shards;
    options.width = engine.grade_width;
    options.num_threads = engine.num_threads;
    return fault::simulate_sharded(faults, patterns, strobes, options,
                                   compiled);
  }
  return fault::simulate_ppsfp_mt(faults, patterns, strobes,
                                  engine.num_threads, compiled,
                                  engine.grade_width);
}

}  // namespace

}  // namespace flowbench
