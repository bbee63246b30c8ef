// Shared types of the flow benchmark program (flowbench/flowbench.cpp).
//
// A workload is a fixed product mix (a "rotation" of spec texts) derived
// from a seed, run by a number of closed-loop lanes. Every executed spec
// yields a Sample: its externally measured latency and the canonical form
// of its result record, which the verification phase compares across
// repeats, against the serial oracle and against the golden file.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "flow/batch.hpp"

namespace flowbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One spec of a workload's rotation.
struct SpecDef {
  std::string name;     ///< stable id (golden file key)
  std::string text;     ///< spec file body (flow/spec_io.hpp format)
  bool oracle = false;  ///< also graded with engine = serial in verification
  std::string path;     ///< where the text was written (in-process runs)
};

/// How a workload's lanes are driven.
enum class Mode {
  kInProcess,  ///< lanes call flow::run_spec_with_retry on a shared cache
  kDaemon,     ///< lanes are socket clients of an lsiq_flowd process
};

/// The resolved thread budget of a workload: lanes x grading threads never
/// exceeds the host's hardware threads.
struct Budget {
  std::size_t nproc = 1;
  std::size_t lanes = 1;            ///< concurrent specs (daemon: --jobs)
  std::size_t grading_threads = 1;  ///< the specs' `threads` key
  std::size_t clients = 1;          ///< closed-loop callers
};

struct Workload {
  std::string name;
  Mode mode = Mode::kInProcess;
  Budget budget;
  std::vector<SpecDef> rotation;
  /// Non-zero: the rotation is a series of batch campaigns of this many
  /// specs, each with a fresh ArtifactCache and a barrier at its end.
  std::size_t campaign_size = 0;
  /// Whole rotations per measurement block: the end-to-end metrics are
  /// medians over blocks of the timed phase.
  std::size_t rotations_per_block = 1;
  /// In-process warm-up runs the rotation's first specs (0 = all of them).
  std::size_t warmup_specs = 0;
};

/// Build a workload's rotation from the seed; the product mix is fixed by
/// the workload, the seed varies LFSR, ATPG and lot seeds. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t nproc);

/// The same spec graded by the reference engine.
std::string with_serial_engine(const std::string& text);

/// The comparable part of a result record: status, patterns, classes,
/// coverage and dppm (never wall time).
std::string canonical(const lsiq::flow::BatchRecord& record);

/// One executed spec.
struct Sample {
  std::size_t spec = 0;      ///< index into the rotation
  std::size_t position = 0;  ///< order in which the phase handed it out
  double ms = 0.0;       ///< latency measured by the caller
  bool traced = false;   ///< produced by the traced replay
  lsiq::flow::BatchRecord record;
};

/// golden[workload][seed][spec name] = canonical record.
using Golden =
    std::map<std::string,
             std::map<std::uint64_t, std::map<std::string, std::string>>>;
Golden read_golden(const std::string& path);

}  // namespace flowbench
