// flowbench — the flow benchmark program. Usually started through
// flowbench/run.py, which builds it; see flowbench/README.md.
//
//   flowbench --workload NAME --seed N --seconds S --trace 0|1
//             --flowd PATH --golden FILE --work DIR [--commit ID]
//             [--write-golden FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics through the traced replay. Both check every output.
// Standard output gets two lines: a detail line (host context, sample
// counts) and, last, the result object.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "daemon.hpp"
#include "replay.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"

namespace flowbench {
namespace {

using lsiq::flow::ArtifactCache;
using lsiq::flow::BatchOptions;
using lsiq::flow::BatchRecord;
namespace json = lsiq::util::json;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupRepeats = 3;
constexpr auto kPollInterval = std::chrono::milliseconds(2);

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string flowd;
  std::string golden;
  std::string work;
  std::string commit = "unknown";
  std::string write_golden;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--flowd") args.flowd = value;
    else if (key == "--golden") args.golden = value;
    else if (key == "--work") args.work = value;
    else if (key == "--commit") args.commit = value;
    else if (key == "--write-golden") args.write_golden = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.workload.empty() || args.flowd.empty() || args.golden.empty() ||
      args.work.empty() || args.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: flowbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--flowd PATH --golden FILE --work DIR [--commit ID] "
        "[--write-golden FILE]");
  }
  return args;
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + path);
  }
}

void write_specs(std::vector<SpecDef>& specs, const std::string& dir) {
  make_dir(dir);
  for (SpecDef& spec : specs) {
    spec.path = dir + "/" + spec.name + ".spec";
    std::ofstream out(spec.path);
    out << spec.text;
    if (!out) throw std::runtime_error("cannot write " + spec.path);
  }
}

double cpu_ms_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  return values[low] +
         (values[high] - values[low]) * (position - static_cast<double>(low));
}

// ---- running lanes ----

/// The time and CPU reading taken as a block of a timed phase starts, and
/// once more as the phase ends: what block throughput and CPU come from.
struct Mark {
  Clock::time_point at;
  double cpu_ms = 0.0;
};

/// Measurement blocks of a timed phase: `block` positions each, marked by
/// `cpu` (the working process's CPU time).
struct Meter {
  std::size_t block = 1;
  std::function<double()> cpu;
};

/// Hands out positions to closed-loop lanes and stops only at a block
/// boundary once the deadline has passed, so every run measures whole
/// blocks (at least one) of whole rotations of the product mix.
class Dispenser {
 public:
  Dispenser(std::size_t block, Clock::time_point deadline, const Meter* meter,
            std::vector<Mark>& marks)
      : block_(block), deadline_(deadline), meter_(meter), marks_(marks) {}

  std::optional<std::size_t> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return std::nullopt;
    if (next_ % block_ == 0) {
      if (next_ > 0 && Clock::now() >= deadline_) {
        stopped_ = true;
        return std::nullopt;
      }
      if (meter_ != nullptr) marks_.push_back({Clock::now(), meter_->cpu()});
    }
    return next_++;
  }

 private:
  std::mutex mutex_;
  std::size_t block_;
  Clock::time_point deadline_;
  const Meter* meter_;
  std::vector<Mark>& marks_;
  std::size_t next_ = 0;
  bool stopped_ = false;
};

using SpecFn = std::function<Sample(std::size_t lane, std::size_t spec)>;

struct Phase {
  std::vector<Sample> samples;
  /// With a Meter: one mark per block, then one at the end of the phase.
  std::vector<Mark> marks;
};

/// Run `body` on `lanes` threads; the first exception a lane throws is
/// rethrown here once every lane has ended.
void run_threads(std::size_t lanes,
                 const std::function<void(std::size_t)>& body) {
  std::mutex mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      try {
        body(lane);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

/// `lanes` closed loops over the rotation until `seconds` have passed. With
/// a `campaign_size`, the rotation runs as consecutive campaigns of that
/// many specs: `on_campaign` runs before each, and all lanes finish one
/// before the next starts. A `meter` splits the phase into blocks (whole
/// rotations) and marks each; without one a block is one rotation.
Phase run_phase(std::size_t rotation, std::size_t lanes, double seconds,
                std::size_t campaign_size, const SpecFn& fn,
                const std::function<void()>& on_campaign = {},
                const Meter* meter = nullptr) {
  Phase phase;
  std::mutex mutex;
  const auto collect = [&](std::vector<Sample>& local) {
    const std::lock_guard<std::mutex> lock(mutex);
    phase.samples.insert(phase.samples.end(), local.begin(), local.end());
  };
  const auto run = [&](std::size_t lane, std::size_t position) {
    Sample sample = fn(lane, position % rotation);
    sample.position = position;
    return sample;
  };
  const std::size_t block = meter != nullptr ? meter->block : rotation;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  if (campaign_size == 0) {
    Dispenser dispenser(block, deadline, meter, phase.marks);
    run_threads(lanes, [&](std::size_t lane) {
      std::vector<Sample> local;
      while (const std::optional<std::size_t> position = dispenser.take()) {
        local.push_back(run(lane, *position));
      }
      collect(local);
    });
  } else {
    std::size_t base = 0;
    do {
      if (meter != nullptr && base % block == 0) {
        phase.marks.push_back({Clock::now(), meter->cpu()});
      }
      for (std::size_t begin = 0; begin < rotation; begin += campaign_size) {
        if (on_campaign) on_campaign();
        const std::size_t end = std::min(rotation, begin + campaign_size);
        std::atomic<std::size_t> next{begin};
        run_threads(lanes, [&](std::size_t lane) {
          std::vector<Sample> local;
          for (std::size_t spec = next++; spec < end; spec = next++) {
            local.push_back(run(lane, base + spec));
          }
          collect(local);
        });
      }
      base += rotation;
    } while (base % block != 0 || Clock::now() < deadline);
  }
  if (meter != nullptr) phase.marks.push_back({Clock::now(), meter->cpu()});
  return phase;
}

// ---- the unit of work of each mode ----

BatchOptions batch_options() {
  BatchOptions options;
  options.retry.backoff_initial_ms = 0;
  return options;
}

Sample in_process_spec(const Workload& w, std::size_t spec,
                       ArtifactCache& cache) {
  Sample sample;
  sample.spec = spec;
  const Clock::time_point start = Clock::now();
  sample.record = lsiq::flow::run_spec_with_retry(w.rotation[spec].path,
                                                  cache, batch_options());
  sample.ms = ms_between(start, Clock::now());
  return sample;
}

/// Client-side service counters of the daemon workload.
struct ServiceCounters {
  double submits = 0, submit_ms = 0, queue_wait_ms = 0, polls = 0,
         poll_ms = 0, refused = 0;
  void merge(const ServiceCounters& o) {
    submits += o.submits;
    submit_ms += o.submit_ms;
    queue_wait_ms += o.queue_wait_ms;
    polls += o.polls;
    poll_ms += o.poll_ms;
    refused += o.refused;
  }
};

BatchRecord failed_record(const std::string& spec, const std::string& code,
                          const std::string& error) {
  BatchRecord record;
  record.spec = spec;
  record.status = "failed";
  record.error_code =
      lsiq::error_code_from_name(code).value_or(lsiq::ErrorCode::kUnknown);
  record.error = error;
  return record;
}

/// submit -> poll status -> result, timed from the submit being sent until
/// the result record has been read.
Sample daemon_spec(Connection& connection, const SpecDef& def,
                   std::size_t spec, ServiceCounters& counters) {
  Sample sample;
  sample.spec = spec;
  lsiq::service::Request submit;
  submit.op = "submit";
  submit.spec_text = def.text;
  const Clock::time_point start = Clock::now();
  const JsonObject submitted =
      parse_response(connection.call(lsiq::service::format_request(submit)));
  const Clock::time_point sent = Clock::now();
  counters.submits += 1;
  counters.submit_ms += ms_between(start, sent);
  if (!ok_field(submitted)) {
    counters.refused += 1;
    sample.record = failed_record(def.name,
                                  string_field(submitted, "error_code"),
                                  string_field(submitted, "error"));
    sample.ms = ms_between(start, Clock::now());
    return sample;
  }
  lsiq::service::Request query;
  query.job = static_cast<std::uint64_t>(number_field(submitted, "job"));
  query.has_job = true;
  std::string state = string_field(submitted, "state");
  bool started = state != "queued";
  if (started) counters.queue_wait_ms += ms_between(start, sent);
  while (state != "done") {
    std::this_thread::sleep_for(kPollInterval);
    query.op = "status";
    const Clock::time_point poll_start = Clock::now();
    const JsonObject status =
        parse_response(connection.call(lsiq::service::format_request(query)));
    const Clock::time_point poll_end = Clock::now();
    counters.polls += 1;
    counters.poll_ms += ms_between(poll_start, poll_end);
    if (!ok_field(status)) {
      throw std::runtime_error("status refused for job " +
                               std::to_string(query.job));
    }
    state = string_field(status, "state");
    if (!started && state != "queued") {
      started = true;
      counters.queue_wait_ms += ms_between(start, poll_end);
    }
  }
  query.op = "result";
  const std::string line =
      connection.call(lsiq::service::format_request(query));
  sample.ms = ms_between(start, Clock::now());
  std::optional<BatchRecord> record = BatchRecord::from_jsonl(line);
  sample.record = record.has_value()
                      ? std::move(*record)
                      : failed_record(def.name, "unknown",
                                      "unparsable result: " + line);
  return sample;
}

// ---- set-up ----

/// Everything a timed phase needs: the written specs, a warm artifact cache
/// (in-process) or a warm private daemon.
struct Env {
  Workload w;
  std::unique_ptr<ArtifactCache> cache;
  std::unique_ptr<Daemon> daemon;
  std::string dir;
};

/// Artifact-cache traffic of one phase.
struct CacheDelta {
  double hits = 0, misses = 0, evictions = 0;
  void add(const ArtifactCache::Stats& stats, double sign) {
    hits += sign * static_cast<double>(stats.hits);
    misses += sign * static_cast<double>(stats.misses);
    evictions += sign * static_cast<double>(stats.evictions);
  }
};

/// The in-process timed loop on the workload's lanes. `specs` limits it to
/// the first specs of the rotation (0 = all of it).
Phase run_in_process(Env& env, double seconds, std::size_t specs = 0,
                     const Meter* meter = nullptr) {
  const Workload& w = env.w;
  return run_phase(
      specs != 0 ? specs : w.rotation.size(), w.budget.lanes, seconds,
      w.campaign_size,
      [&](std::size_t, std::size_t spec) {
        return in_process_spec(w, spec, *env.cache);
      },
      // A campaign is a batch of its own: it starts on a fresh cache.
      [&] { env.cache = std::make_unique<ArtifactCache>(); }, meter);
}

Phase run_daemon(Env& env, double seconds, ServiceCounters* counters,
                 const Meter* meter = nullptr) {
  const Workload& w = env.w;
  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t i = 0; i < w.budget.clients; ++i) {
    connections.push_back(
        std::make_unique<Connection>(env.daemon->socket_path()));
  }
  std::vector<ServiceCounters> per_lane(w.budget.clients);
  Phase phase = run_phase(
      w.rotation.size(), w.budget.clients, seconds, 0,
      [&](std::size_t lane, std::size_t spec) {
        return daemon_spec(*connections[lane], w.rotation[spec], spec,
                           per_lane[lane]);
      },
      {}, meter);
  if (counters != nullptr) {
    for (const ServiceCounters& lane : per_lane) counters->merge(lane);
  }
  return phase;
}

JsonObject daemon_stats(Daemon& daemon) {
  Connection connection(daemon.socket_path());
  lsiq::service::Request request;
  request.op = "stats";
  return parse_response(
      connection.call(lsiq::service::format_request(request)));
}

/// Spec generation and warm-up: one untimed rotation, or its first
/// `warmup_specs`, on the workload's own lanes (for the daemon, through its
/// clients after the first ping).
Env setup(const Args& args, int attempt, std::size_t nproc) {
  Env env;
  env.w = make_workload(args.workload, args.seed, nproc);
  env.dir = args.work + "/setup" + std::to_string(attempt);
  make_dir(env.dir);
  write_specs(env.w.rotation, env.dir + "/specs");
  switch (env.w.mode) {
    case Mode::kInProcess:
      env.cache = std::make_unique<ArtifactCache>();
      run_in_process(env, 0.0, env.w.warmup_specs);
      break;
    case Mode::kDaemon: {
      const std::string dir = env.dir + "/flowd";
      make_dir(dir);
      make_dir(dir + "/spool");
      env.daemon = std::make_unique<Daemon>(args.flowd, dir,
                                            env.w.budget.lanes,
                                            env.w.budget.clients + 4);
      run_daemon(env, 0.0, nullptr);
      break;
    }
  }
  return env;
}

/// Failed checks of one run; each counts against ok_frac.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& problem) {
    ++failed;
    if (problems.size() < 20) problems.push_back(problem);
  }
};

/// Drain the daemon; a refused drain, a non-zero exit or a resumed job is
/// a failure of the run.
void teardown(Env& env, Verdict& verdict, JsonObject* stats = nullptr) {
  if (!env.daemon) return;
  const JsonObject snapshot = daemon_stats(*env.daemon);
  if (number_field(snapshot, "resumed") != 0) {
    verdict.fail("lsiq_flowd resumed jobs from its journal");
  }
  const int code = env.daemon->drain();
  if (code != 0) {
    verdict.fail("lsiq_flowd exited with code " + std::to_string(code));
  }
  env.daemon.reset();
  if (stats != nullptr) *stats = snapshot;
}

// ---- verification ----

/// Reference records of a rotation: one untraced in-process run per spec.
std::vector<std::string> reference_records(Env& env, Verdict& verdict) {
  ArtifactCache cache;
  std::vector<std::string> records(env.w.rotation.size());
  std::atomic<std::size_t> next{0};
  run_threads(env.w.budget.lanes, [&](std::size_t) {
    for (std::size_t i = next++; i < records.size(); i = next++) {
      records[i] = canonical(in_process_spec(env.w, i, cache).record);
    }
  });
  verdict.attempted += records.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].rfind("ok ", 0) != 0) {
      verdict.fail(env.w.rotation[i].name + ": " + records[i]);
    }
  }
  return records;
}

/// The first record of each spec in a phase: the reference its repeats
/// must reproduce.
std::vector<std::string> first_records(const Phase& phase,
                                       std::size_t rotation) {
  std::vector<std::string> records(rotation);
  for (const Sample& sample : phase.samples) {
    if (records[sample.spec].empty()) {
      records[sample.spec] = canonical(sample.record);
    }
  }
  return records;
}

/// Every sample must reproduce its spec's reference record.
void check_samples(const Env& env, const std::vector<Sample>& samples,
                   const std::vector<std::string>& reference,
                   const char* phase, Verdict& verdict) {
  verdict.attempted += samples.size();
  for (const Sample& sample : samples) {
    const std::string got = canonical(sample.record);
    if (got != reference[sample.spec]) {
      verdict.fail(std::string(phase) + " " +
                   env.w.rotation[sample.spec].name + ": got '" + got +
                   "', expected '" + reference[sample.spec] + "'");
    }
  }
}

/// The serial engine is the oracle: it must give the same record.
void check_oracle(Env& env, const std::vector<std::string>& reference,
                  Verdict& verdict) {
  ArtifactCache cache;
  for (std::size_t i = 0; i < env.w.rotation.size(); ++i) {
    const SpecDef& spec = env.w.rotation[i];
    if (!spec.oracle) continue;
    const std::string path = env.dir + "/oracle_" + spec.name + ".spec";
    std::ofstream(path) << with_serial_engine(spec.text);
    const std::string got = canonical(
        lsiq::flow::run_spec_with_retry(path, cache, batch_options()));
    ++verdict.attempted;
    if (got != reference[i]) {
      verdict.fail("serial oracle " + spec.name + ": got '" + got +
                   "', engine gave '" + reference[i] + "'");
    }
  }
}

/// Compare against the golden records: of this seed when it has them,
/// otherwise of the default seed (run here, untimed).
void check_golden(const Args& args, Env& env,
                  const std::vector<std::string>& reference,
                  std::size_t nproc, Verdict& verdict) {
  const Golden golden = read_golden(args.golden);
  const auto workload = golden.find(args.workload);
  const auto compare = [&](const Workload& w, std::uint64_t seed,
                           const std::vector<std::string>& records) {
    const auto& expected = workload->second.at(seed);
    for (std::size_t i = 0; i < w.rotation.size(); ++i) {
      const auto it = expected.find(w.rotation[i].name);
      if (it == expected.end() || it->second != records[i]) {
        verdict.fail("golden seed " + std::to_string(seed) + " " +
                     w.rotation[i].name + ": got '" + records[i] + "'");
      }
    }
  };
  if (workload == golden.end() ||
      (workload->second.count(args.seed) == 0 &&
       workload->second.count(kDefaultSeed) == 0)) {
    verdict.fail("no golden records for " + args.workload);
    return;
  }
  if (workload->second.count(args.seed) != 0) {
    compare(env.w, args.seed, reference);
    return;
  }
  Env anchor;
  anchor.w = make_workload(args.workload, kDefaultSeed, nproc);
  anchor.dir = args.work + "/golden";
  make_dir(anchor.dir);
  write_specs(anchor.w.rotation, anchor.dir + "/specs");
  compare(anchor.w, kDefaultSeed, reference_records(anchor, verdict));
}

void write_golden(const Args& args, const Env& env,
                  const std::vector<std::string>& reference) {
  std::ofstream out(args.write_golden, std::ios::app);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    out << args.workload << " " << args.seed << " " << env.w.rotation[i].name
        << " " << reference[i] << "\n";
  }
}

// ---- output ----

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void add(const std::string& name, double value, const std::string& unit) {
    rows.emplace_back(name, value, unit);
  }
};

std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string context_json(const Args& args, const Budget& budget) {
  std::string out = "{\"workload\":";
  json::append_string(out, args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + json::format_double(args.seconds);
  out += ",\"trace\":" + std::to_string(args.trace ? 1 : 0);
  out += ",\"nproc\":" + std::to_string(budget.nproc);
  out += ",\"cpu_model\":";
  json::append_string(out, host_cpu_model());
  out += ",\"build_type\":";
  json::append_string(out, FLOWBENCH_BUILD_TYPE);
  out += ",\"compiler\":";
  json::append_string(out, FLOWBENCH_COMPILER);
  out += ",\"lsiq_avx2\":";
  json::append_string(out, FLOWBENCH_AVX2);
  out += ",\"branch_pad\":";
  json::append_string(out, FLOWBENCH_BRANCH_PAD);
  out += ",\"commit\":";
  json::append_string(out, args.commit);
  out += ",\"lanes\":" + std::to_string(budget.lanes);
  out += ",\"grading_threads\":" + std::to_string(budget.grading_threads);
  out += ",\"clients\":" + std::to_string(budget.clients);
  out += ",\"thread_budget\":" +
         std::to_string(budget.lanes * budget.grading_threads);
  out += "}";
  return out;
}

void print_result(const Args& args, const Budget& budget,
                  const std::string& samples_json, const Verdict& verdict,
                  const Metrics& metrics) {
  for (const std::string& problem : verdict.problems) {
    std::cerr << "flowbench: CHECK FAILED: " << problem << "\n";
  }
  std::cout << "{\"context\":" << context_json(args, budget)
            << ",\"samples\":" << samples_json << "}\n";
  std::string out = "{\"correct\":";
  out += verdict.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(verdict.attempted);
  out += ",\"failed\":" + std::to_string(verdict.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value, unit] : metrics.rows) {
    if (!first) out += ",";
    first = false;
    json::append_string(out, name);
    out += ":{\"value\":" + json::format_double(value) + ",\"unit\":";
    json::append_string(out, unit);
    out += "}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

std::vector<double> latencies(const Phase& phase) {
  std::vector<double> ms;
  for (const Sample& sample : phase.samples) ms.push_back(sample.ms);
  return ms;
}

/// {"spec name": median latency, ...}: shows which spec types the
/// workload's quantiles fall in.
std::string medians_by_spec(const Workload& w, const Phase& phase) {
  std::vector<std::vector<double>> by_spec(w.rotation.size());
  for (const Sample& sample : phase.samples) {
    by_spec[sample.spec].push_back(sample.ms);
  }
  std::string out = "{";
  for (std::size_t i = 0; i < by_spec.size(); ++i) {
    if (i != 0) out += ",";
    json::append_string(out, w.rotation[i].name);
    out += ':';
    out += json::format_double(quantile(by_spec[i], 0.5));
  }
  out += '}';
  return out;
}

/// Per-block figures of a metered phase: block b holds the positions
/// [b * block, (b + 1) * block) and lies between marks b and b + 1.
struct Blocks {
  std::vector<double> p50_ms, p90_ms, specs_per_s, cpu_ms_per_spec;
};

Blocks block_metrics(const Phase& phase, std::size_t block) {
  const std::size_t count = phase.marks.size() - 1;
  std::vector<std::vector<double>> ms(count);
  for (const Sample& sample : phase.samples) {
    ms.at(sample.position / block).push_back(sample.ms);
  }
  Blocks blocks;
  for (std::size_t b = 0; b < count; ++b) {
    const Mark& begin = phase.marks[b];
    const Mark& end = phase.marks[b + 1];
    const double size = static_cast<double>(ms[b].size());
    blocks.p50_ms.push_back(quantile(ms[b], 0.5));
    blocks.p90_ms.push_back(quantile(ms[b], 0.9));
    blocks.specs_per_s.push_back(size / (ms_between(begin.at, end.at) / 1e3));
    blocks.cpu_ms_per_spec.push_back((end.cpu_ms - begin.cpu_ms) / size);
  }
  return blocks;
}

std::size_t beyond(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > threshold; }));
}

// ---- the two kinds of run ----

int end_to_end(const Args& args, std::size_t nproc) {
  std::vector<double> setup_s;
  std::optional<Env> env;
  Verdict verdict;
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    if (env.has_value()) teardown(*env, verdict);
    const Clock::time_point start = Clock::now();
    env.emplace(setup(args, attempt, nproc));
    setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
  }

  const bool daemon = env->w.mode == Mode::kDaemon;
  Meter meter;
  meter.block = env->w.rotations_per_block * env->w.rotation.size();
  meter.cpu = [&] { return daemon ? env->daemon->cpu_ms() : cpu_ms_self(); };
  const Phase phase =
      daemon ? run_daemon(*env, args.seconds, nullptr, &meter)
             : run_in_process(*env, args.seconds, 0, &meter);
  const double rss = daemon ? env->daemon->peak_rss_mb() : peak_rss_mb("self");
  teardown(*env, verdict);

  const std::vector<std::string> reference =
      daemon ? reference_records(*env, verdict)
             : first_records(phase, env->w.rotation.size());
  check_samples(*env, phase.samples, reference, "timed", verdict);
  check_oracle(*env, reference, verdict);
  if (!args.write_golden.empty()) write_golden(args, *env, reference);
  else check_golden(args, *env, reference, nproc, verdict);

  // Each metric is the median over the phase's blocks, so a host slow-down
  // that covers less than half of the run does not move it.
  const Blocks blocks = block_metrics(phase, meter.block);
  const std::vector<double> ms = latencies(phase);
  const double p90 = quantile(blocks.p90_ms, 0.5);
  if (beyond(ms, p90) < 10) {
    std::cerr << "flowbench: warning: fewer than ten samples beyond p90; "
                 "run longer\n";
  }
  Metrics metrics;
  metrics.add("setup_s", quantile(setup_s, 0.5), "s");
  metrics.add("spec_ms_p50", quantile(blocks.p50_ms, 0.5), "ms");
  metrics.add("spec_ms_p90", p90, "ms");
  metrics.add("specs_per_s", quantile(blocks.specs_per_s, 0.5), "1/s");
  metrics.add("cpu_ms_per_spec", quantile(blocks.cpu_ms_per_spec, 0.5), "ms");
  metrics.add("peak_rss_mb", rss, "MB");
  metrics.add("ok_frac",
              1.0 - static_cast<double>(verdict.failed) /
                        static_cast<double>(verdict.attempted),
              "fraction");
  const Mark& first = phase.marks.front();
  const Mark& last = phase.marks.back();
  const double n = static_cast<double>(ms.size());
  std::ostringstream samples;
  samples << "{\"specs\":" << ms.size() << ",\"beyond_p90\":" << beyond(ms, p90)
          << ",\"rotation\":" << env->w.rotation.size()
          << ",\"blocks\":" << blocks.p50_ms.size()
          << ",\"block_specs\":" << meter.block
          << ",\"setup_runs\":" << setup_s.size()
          << ",\"pooled\":{\"spec_ms_p50\":"
          << json::format_double(quantile(ms, 0.5))
          << ",\"spec_ms_p90\":" << json::format_double(quantile(ms, 0.9))
          << ",\"specs_per_s\":"
          << json::format_double(n / (ms_between(first.at, last.at) / 1e3))
          << ",\"cpu_ms_per_spec\":"
          << json::format_double((last.cpu_ms - first.cpu_ms) / n) << "}"
          << ",\"spec_ms_p50_by_spec\":" << medians_by_spec(env->w, phase)
          << "}";
  print_result(args, env->w.budget, samples.str(), verdict, metrics);
  return 0;
}

int per_layer(const Args& args, std::size_t nproc) {
  Verdict verdict;
  Env env = setup(args, 0, nproc);
  const Workload& w = env.w;
  const std::size_t n = w.rotation.size();
  const bool daemon = w.mode == Mode::kDaemon;

  // 1. The daemon itself: client-side service counters and its cache.
  ServiceCounters service;
  JsonObject stats_before;
  JsonObject stats_after;
  std::size_t daemon_specs = 0;
  std::size_t daemon_attempts = 0;
  if (daemon) {
    stats_before = daemon_stats(*env.daemon);
    const Phase phase = run_daemon(env, args.seconds / 2, &service);
    daemon_specs = phase.samples.size();
    for (const Sample& s : phase.samples) daemon_attempts += s.record.attempts;
    teardown(env, verdict, &stats_after);
    const std::vector<std::string> reference = reference_records(env, verdict);
    check_samples(env, phase.samples, reference, "daemon", verdict);
    env.cache = std::make_unique<ArtifactCache>();
    run_in_process(env, 0.0);
  }

  // 2. Untraced and traced rotations alternate in one phase on the
  // workload's lanes and cache policy, so both see the same host
  // conditions: position p < n runs the unit of work,
  // flow::run_spec_with_retry, on spec p; position p >= n the traced replay
  // of spec p - n. A campaign workload gets fresh caches per campaign; the
  // others warm the replay's cache first, as setup warmed the workload's.
  std::vector<LayerSums> lane_sums(w.budget.lanes);
  auto replay_cache = std::make_unique<ReplayCache>();
  const auto replay = [&](std::size_t spec, LayerSums& sums) {
    Sample sample;
    sample.spec = spec;
    sample.traced = true;
    sample.record = replay_spec(w.rotation[spec].path, *replay_cache, sums,
                                &sample.ms);
    return sample;
  };
  if (w.campaign_size == 0) {
    LayerSums discard;
    run_phase(n, 1, 0.0, 0, [&](std::size_t, std::size_t spec) {
      return replay(spec, discard);
    });
  }
  CacheDelta cache_delta;
  cache_delta.add(env.cache->stats(), -1);
  const Phase phase = run_phase(
      2 * n, w.budget.lanes, daemon ? args.seconds / 2 : args.seconds,
      w.campaign_size,
      [&](std::size_t lane, std::size_t position) {
        return position < n ? in_process_spec(w, position, *env.cache)
                            : replay(position - n, lane_sums[lane]);
      },
      [&] {
        cache_delta.add(env.cache->stats(), 1);
        env.cache = std::make_unique<ArtifactCache>();
        replay_cache = std::make_unique<ReplayCache>();
      });
  cache_delta.add(env.cache->stats(), 1);
  Phase untraced;
  Phase traced;
  for (const Sample& sample : phase.samples) {
    (sample.traced ? traced : untraced).samples.push_back(sample);
  }
  std::size_t attempts = 0;
  for (const Sample& s : untraced.samples) attempts += s.record.attempts;
  const std::vector<std::string> reference = first_records(untraced, n);
  check_samples(env, untraced.samples, reference, "untraced", verdict);
  check_samples(env, traced.samples, reference, "traced", verdict);
  check_oracle(env, reference, verdict);
  check_golden(args, env, reference, nproc, verdict);

  LayerSums sums;
  for (const LayerSums& lane : lane_sums) sums.merge(lane);
  const double specs = sums.get("n.specs");
  const auto per_spec = [&](const std::string& key) {
    return sums.get(key) / specs;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double untraced_p50 = quantile(latencies(untraced), 0.5);
  const double traced_p50 = quantile(latencies(traced), 0.5);
  const double accounted =
      ratio(sums.get("trace.accounted"), sums.get("flow.spec"));
  if (sums.get("n.unaccounted_specs") > 0) {
    verdict.fail("traced spans of some specs overlap: self times plus glue "
                 "exceed the spec wall time");
  }

  Metrics m;
  m.add("analyze.gate_ms", per_spec("analyze.gate"), "ms");
  m.add("analyze.redundant_classes", per_spec("n.redundant_classes"), "count");
  m.add("analyze.diagnostics", per_spec("n.diagnostics"), "count");
  m.add("fault.grade_ms", per_spec("fault.grade"), "ms");
  m.add("fault.class_patterns_per_s",
        ratio(sums.get("n.grade_class_patterns"),
              sums.get("fault.grade") / 1e3),
        "1/s");
  m.add("fault.detected_frac",
        ratio(sums.get("n.grade_detected"), sums.get("n.grade_classes")),
        "fraction");
  m.add("tpg.patterns_ms", per_spec("tpg.patterns"), "ms");
  m.add("tpg.decisions", per_spec("n.decisions"), "count");
  m.add("tpg.backtracks", per_spec("n.backtracks"), "count");
  m.add("tpg.aborted_classes", per_spec("n.aborted"), "count");
  m.add("tpg.program_patterns", per_spec("n.program_patterns"), "count");
  m.add("bist.session_ms", per_spec("bist.session"), "ms");
  m.add("bist.aliased_classes", per_spec("n.aliased"), "count");
  m.add("circuit.build_ms", per_spec("circuit.build"), "ms");
  m.add("circuit.compile_ms", per_spec("circuit.compile"), "ms");
  m.add("circuit.gates", ratio(sums.get("n.gates"), sums.get("n.builds")),
        "count");
  m.add("fault_model.universe_ms", per_spec("fault_model.universe"), "ms");
  m.add("fault_model.classes",
        ratio(sums.get("n.universe_classes"), sums.get("n.builds")), "count");
  if (daemon) {
    const auto delta = [&](const char* key) {
      return number_field(stats_after, key) - number_field(stats_before, key);
    };
    m.add("batch.cache_hit_ratio",
          ratio(delta("cache_hits"),
                delta("cache_hits") + delta("cache_misses")),
          "fraction");
    m.add("batch.cache_evictions", delta("cache_evictions"), "count");
    m.add("batch.attempts_per_spec",
          ratio(static_cast<double>(daemon_attempts),
                static_cast<double>(daemon_specs)),
          "count");
  } else {
    m.add("batch.cache_hit_ratio",
          ratio(cache_delta.hits, cache_delta.hits + cache_delta.misses),
          "fraction");
    m.add("batch.cache_evictions", cache_delta.evictions, "count");
    m.add("batch.attempts_per_spec",
          ratio(static_cast<double>(attempts),
                static_cast<double>(untraced.samples.size())),
          "count");
  }
  m.add("batch.cache_ms", per_spec("batch.cache"), "ms");
  m.add("wafer.lot_ms", per_spec("wafer.lot"), "ms");
  m.add("core.characterize_ms", per_spec("core.characterize"), "ms");
  m.add("flow.spec_ms", per_spec("flow.spec"), "ms");
  m.add("flow.read_spec_ms", per_spec("flow.read_spec"), "ms");
  m.add("flow.report_ms", per_spec("flow.report"), "ms");
  m.add("flow.glue_ms", per_spec("flow.glue"), "ms");
  m.add("service.submit_ms", ratio(service.submit_ms, service.submits), "ms");
  m.add("service.queue_wait_ms", ratio(service.queue_wait_ms, service.submits),
        "ms");
  m.add("service.poll_ms", ratio(service.poll_ms, service.polls), "ms");
  m.add("service.refused", service.refused, "count");
  m.add("service.resumed",
        daemon ? number_field(stats_after, "resumed") -
                     number_field(stats_before, "resumed")
               : 0.0,
        "count");
  m.add("trace.overhead_frac", ratio(traced_p50 - untraced_p50, untraced_p50),
        "fraction");
  m.add("trace.accounted_frac", accounted, "fraction");

  std::ostringstream samples;
  samples << "{\"untraced_specs\":" << untraced.samples.size()
          << ",\"traced_specs\":" << traced.samples.size()
          << ",\"daemon_specs\":" << daemon_specs << "}";
  print_result(args, w.budget, samples.str(), verdict, m);
  return 0;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  try {
    const flowbench::Args args = flowbench::parse_args(argc, argv);
    flowbench::make_dir(args.work);
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    return args.trace ? flowbench::per_layer(args, nproc)
                      : flowbench::end_to_end(args, nproc);
  } catch (const std::exception& e) {
    std::cerr << "flowbench: " << e.what() << "\n";
    return 1;
  }
}
