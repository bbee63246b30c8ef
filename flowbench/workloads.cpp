// Workload definitions: fixed product mixes whose seeds come from --seed.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "util/json.hpp"

namespace flowbench {

namespace {

/// splitmix64: decorrelates the per-spec seeds derived from one run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A nonzero 31-bit LFSR seed (valid for the default 32-bit register).
std::uint64_t lfsr_seed(std::uint64_t seed, std::uint64_t salt) {
  return 1 + mix(seed, salt) % 0x7ffffffeULL;
}

constexpr const char* kTable1Strobes =
    "0.05 0.08 0.10 0.15 0.20 0.30 0.36 0.45 0.50 0.65";

struct Text {
  std::ostringstream out;
  Text& set(const std::string& key, const std::string& value) {
    out << key << " = " << value << "\n";
    return *this;
  }
  Text& set(const std::string& key, std::uint64_t value) {
    return set(key, std::to_string(value));
  }
};

/// The paper's Section 7 experiment, scaled: mult16/mult24 LFSR programs of
/// 1024-4096 patterns, stuck-at and transition, full and progressive
/// observation, a 277-chip lot and least-squares characterization. The
/// mix is shaped so that each quantile falls in the middle of one spec
/// type, with a wide gap to the next: three short mult16 specs, four
/// mult24 x 4096 stuck-at specs under different LFSR seeds (the median),
/// three mult24 x 4096 transition specs (the 90th percentile). A quantile
/// at the edge of a type would follow that type's fastest or slowest
/// samples, and one between two types would jump whenever host load
/// reorders them.
std::vector<SpecDef> lfsr_table1(std::uint64_t seed, const Budget& budget) {
  struct Row {
    const char* name;
    const char* circuit;
    const char* model;
    std::uint64_t patterns;
    bool progressive;
    bool oracle;
  };
  const Row rows[] = {
      {"m16_sa_1024_prog", "mult16", "stuck_at", 1024, true, false},
      {"m16_tr_1024_prog", "mult16", "transition", 1024, true, false},
      {"m16_tr_2048_full", "mult16", "transition", 2048, false, true},
      {"m24_sa_4096_full_a", "mult24", "stuck_at", 4096, false, false},
      {"m24_sa_4096_full_b", "mult24", "stuck_at", 4096, false, false},
      {"m24_sa_4096_full_c", "mult24", "stuck_at", 4096, false, false},
      {"m24_sa_4096_full_d", "mult24", "stuck_at", 4096, false, false},
      {"m24_tr_4096_prog_a", "mult24", "transition", 4096, true, false},
      {"m24_tr_4096_prog_b", "mult24", "transition", 4096, true, false},
      {"m24_tr_4096_prog_c", "mult24", "transition", 4096, true, false},
  };
  std::vector<SpecDef> specs;
  std::uint64_t salt = 0;
  for (const Row& row : rows) {
    Text t;
    t.set("circuit", row.circuit)
        .set("fault_model", row.model)
        .set("source", "lfsr")
        .set("patterns", row.patterns)
        .set("lfsr_seed", lfsr_seed(seed, ++salt))
        .set("observe", row.progressive ? "progressive" : "full");
    if (row.progressive) t.set("strobe_step", 24);
    t.set("engine", "ppsfp_mt")
        .set("threads", budget.grading_threads)
        .set("chips", 277)
        .set("yield", "0.07")
        .set("n0", "8")
        .set("lot_seed", mix(seed, ++salt) % 1000000)
        .set("strobes", kTable1Strobes)
        .set("method", "least_squares")
        .set("targets", "0.01 0.001");
    specs.push_back({row.name, t.out.str(), row.oracle, ""});
  }
  return specs;
}

/// A PODEM-closure campaign: many distinct small products, stuck-at and
/// transition, compacted programs, single-threaded grading. The ALUs run
/// again under a second ATPG seed, so the campaign sees some artifact-cache
/// hits but is mostly cold. The mix is shaped so that each quantile falls
/// inside one product, with a wide gap to the next: eight tiny specs, five
/// alu8 specs (the median), three alu12 specs, four alu16 specs (the 90th
/// percentile). A rotation is one campaign.
std::vector<SpecDef> atpg_closure(std::uint64_t seed, const Budget& budget) {
  struct Row {
    const char* circuit;
    const char* model;
    int variant;
    bool oracle;
  };
  // Ascending product size: the small specs run beside each other and the
  // ALUs end the campaign, as a size-sorted manifest would.
  const Row rows[] = {
      {"barrel16", "stuck_at", 0, false},   {"barrel16", "transition", 0, false},
      {"comparator16", "stuck_at", 0, false},
      {"comparator16", "transition", 0, true},
      {"mult8", "stuck_at", 0, true},       {"mult8", "transition", 0, false},
      {"mult12", "stuck_at", 0, false},     {"mult12", "transition", 0, false},
      {"alu8", "stuck_at", 0, false},       {"alu8", "transition", 0, false},
      {"alu8", "stuck_at", 1, false},       {"alu8", "transition", 1, false},
      {"alu8", "stuck_at", 2, false},       {"alu12", "stuck_at", 0, false},
      {"alu12", "transition", 0, false},    {"alu12", "stuck_at", 1, false},
      {"alu16", "stuck_at", 0, false},      {"alu16", "transition", 0, false},
      {"alu16", "stuck_at", 1, false},      {"alu16", "transition", 1, false},
  };
  std::vector<SpecDef> specs;
  std::uint64_t salt = 100;
  for (const Row& row : rows) {
    Text t;
    t.set("circuit", row.circuit)
        .set("fault_model", row.model)
        .set("source", "atpg")
        .set("atpg_random", 64)
        .set("atpg_seed", mix(seed, ++salt) % 1000000)
        .set("atpg_compact", 1)
        .set("observe", "full")
        .set("engine", "ppsfp")
        .set("threads", budget.grading_threads)
        .set("chips", 277)
        .set("yield", "0.07")
        .set("n0", "8")
        .set("lot_seed", mix(seed, ++salt) % 1000000)
        .set("strobes", "0.05 0.10 0.20 0.30 0.45 0.60")
        .set("method", "least_squares")
        .set("targets", "0.01 0.001");
    std::string name = std::string(row.circuit) + "_" +
                       (row.model[0] == 's' ? "sa" : "tr") + "_v" +
                       std::to_string(row.variant);
    specs.push_back({std::move(name), t.out.str(), row.oracle, ""});
  }
  return specs;
}

/// Logic BIST through the daemon: MISR observation on mult8/12/16 with
/// k in {8, 16, 32} and 256-1024 patterns, plus two full-observation specs.
std::vector<SpecDef> bist_daemon(std::uint64_t seed, const Budget& budget) {
  struct Row {
    const char* circuit;
    const char* model;
    int misr;  ///< 0 = full observation
    std::uint64_t patterns;
    bool oracle;
  };
  const Row rows[] = {
      {"mult8", "stuck_at", 8, 256, false},
      {"mult8", "stuck_at", 16, 512, false},
      {"mult8", "stuck_at", 32, 1024, false},
      {"mult12", "stuck_at", 8, 512, false},
      {"mult12", "stuck_at", 16, 1024, false},
      {"mult12", "stuck_at", 32, 256, false},
      {"mult16", "stuck_at", 8, 1024, false},
      {"mult16", "stuck_at", 16, 256, false},
      {"mult16", "stuck_at", 32, 512, false},
      {"mult12", "stuck_at", 0, 1024, true},
      {"mult16", "transition", 0, 512, false},
  };
  std::vector<SpecDef> specs;
  std::uint64_t salt = 200;
  for (const Row& row : rows) {
    Text t;
    t.set("circuit", row.circuit)
        .set("fault_model", row.model)
        .set("source", "lfsr")
        .set("patterns", row.patterns)
        .set("lfsr_seed", lfsr_seed(seed, ++salt));
    if (row.misr > 0) {
      t.set("observe", "misr").set("misr_width", row.misr);
    } else {
      t.set("observe", "full");
    }
    t.set("engine", "ppsfp_mt")
        .set("threads", budget.grading_threads)
        .set("chips", 277)
        .set("yield", "0.07")
        .set("n0", "8")
        .set("lot_seed", mix(seed, ++salt) % 1000000);
    if (row.misr > 0) {
      t.set("method", "given");
    } else {
      t.set("strobes", "0.05 0.10 0.20 0.30 0.45 0.60")
          .set("method", "least_squares");
    }
    t.set("targets", "0.01 0.001");
    std::string name = std::string(row.circuit) + "_" +
                       (row.model[0] == 's' ? "sa" : "tr") + "_" +
                       std::to_string(row.patterns) + "_" +
                       (row.misr > 0 ? "k" + std::to_string(row.misr)
                                     : std::string("full"));
    specs.push_back({std::move(name), t.out.str(), row.oracle, ""});
  }
  return specs;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t nproc) {
  Workload w;
  w.name = name;
  w.budget.nproc = std::max<std::size_t>(1, nproc);
  const std::size_t n = w.budget.nproc;
  // Busy grading threads stay at half the host's hardware threads (at least
  // one): the rest keep the driver, the kernel and other tenants of a
  // shared host off the measured threads, whose stragglers would otherwise
  // set every fork-join's pace.
  const std::size_t half = std::max<std::size_t>(1, n / 2);
  if (name == "lfsr_table1") {
    // One engineer, one spec at a time, multi-threaded grading.
    w.mode = Mode::kInProcess;
    w.budget = {n, 1, half, 1};
    w.rotation = lfsr_table1(seed, w.budget);
    w.rotations_per_block = 2;
  } else if (name == "atpg_closure") {
    // Batch campaigns: several lanes, single-threaded grading.
    w.mode = Mode::kInProcess;
    w.budget = {n, half, 1, half};
    w.rotation = atpg_closure(seed, w.budget);
    w.campaign_size = w.rotation.size();
    // The tiny products and alu8: every layer the campaign uses, without
    // the long ALU specs that would make set-up most of a run.
    w.warmup_specs = 13;
  } else if (name == "bist_daemon") {
    // More clients than daemon lanes, so jobs queue.
    w.mode = Mode::kDaemon;
    w.budget = {n, half, 1, std::max<std::size_t>(2, n)};
    w.rotation = bist_daemon(seed, w.budget);
    w.rotations_per_block = 4;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string with_serial_engine(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("engine = ", 0) == 0) line = "engine = serial";
    if (line.rfind("threads = ", 0) == 0) line = "threads = 0";
    out += line + "\n";
  }
  return out;
}

std::string canonical(const lsiq::flow::BatchRecord& record) {
  namespace json = lsiq::util::json;
  std::string out = record.status;
  if (record.status != "ok") {
    return out + " " + lsiq::error_code_name(record.error_code) + " " +
           record.error;
  }
  out += " " + std::to_string(record.patterns);
  out += " " + std::to_string(record.classes);
  out += " " + json::format_double(record.coverage);
  out += " " + json::format_double(record.dppm);
  return out;
}

Golden read_golden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string spec;
    fields >> workload >> seed >> spec;
    std::string record;
    std::getline(fields, record);
    const std::size_t start = record.find_first_not_of(' ');
    if (!fields.fail() && start != std::string::npos) {
      golden[workload][seed][spec] = record.substr(start);
    }
  }
  return golden;
}

}  // namespace flowbench
