// perfbench: the repository's whole-run benchmark.
//
//   perfbench --workload paper_full|paper_spill|census_sweep --seed N
//             --seconds S --trace 0|1 [--spill-dir DIR] [--write-expected]
//
// Runs one untimed warm-up iteration (paper_* only), then repeats the
// workload (one fresh world per iteration) while another iteration fits in
// the measured window of S seconds, checks every iteration's output (the
// warm-up's too) against the committed summary for the seed's slot, and
// prints as its last stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics (medians over iterations);
// --trace 1 alternates traced and untraced iterations and reports the
// per-layer ledger (medians over traced iterations) plus the tracing
// overhead. --write-expected runs one untraced iteration and writes its
// summary as the committed expectation instead (maintenance only).
// Exits non-zero on any failed check or unreadable input.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "obs/json.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// The window sets how many timed iterations run after any warm-up; an
// iteration that cannot end inside it is not started, so a run on a
// slowed-down host lasts about as long as on a quiet one. At least one
// untraced iteration runs, and one traced plus one untraced when tracing
// (the overhead needs both).
constexpr std::size_t kMinIterations = 1;
constexpr std::size_t kMinTracedIterations = 2;

// Threads for the scan, join, filter and alias stages, never above nproc.
// On a shared 4-thread box, 4-thread runs spread by up to a third between
// iterations. paper_* run 2 threads: a few percent of spread, and the
// parallel paths still run. census_sweep runs 1: with 2, per-thread
// malloc arenas keep a varying share of the in-flight probe window, and
// its peak RSS spread from 43 to 59 MB between runs; single-threaded it
// measures the per-probe cost at 20.6 MB, steady to 0.4%.
std::size_t default_threads(Workload workload) {
  return workload == Workload::kCensusSweep ? 1 : 2;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spill_dir;
  bool write_expected = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_full|paper_spill|census_sweep --seed N --seconds S "
               "--trace 0|1 [--spill-dir DIR] [--write-expected]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_unsigned(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-')
    usage(std::string("bad value for ") + flag + ": " + text);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-expected") {
      args.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(value, "--seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_unsigned(value, "--seconds"));
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(parse_unsigned(value, "--trace"));
    } else if (flag == "--spill-dir") {
      args.spill_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!args.write_expected && (args.seconds <= 0 || args.trace < 0 ||
                               args.trace > 1))
    usage("--seconds > 0 and --trace 0|1 are required");
  return args;
}

std::string number(double value) {
  if (!std::isfinite(value))
    throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  snmpv3fp::obs::JsonWriter json;
  json.begin_object();
  json.kv("correct", correct);
  json.kv("attempted", static_cast<std::uint64_t>(attempted));
  json.kv("failed", static_cast<std::uint64_t>(failed));
  json.key("metrics").begin_object();
  for (const auto& metric : metrics) {
    json.key(metric.name).begin_object();
    json.key("value").raw(number(metric.value));
    json.kv("unit", metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

// Counts a failed check: prints every difference to stderr.
bool check(const Summary& got, const Summary& expected, const char* what,
           std::size_t iteration) {
  const auto differences = got.differences(expected);
  for (const auto& line : differences)
    std::fprintf(stderr, "perfbench: %s iteration %zu: %s\n", what, iteration,
                 line.c_str());
  return differences.empty();
}

Sample run_untraced(const Settings& settings) {
  return is_paper(settings.workload) ? run_paper(settings)
                                     : run_census(settings);
}

TracedRun run_traced(const Settings& settings) {
  return is_paper(settings.workload) ? trace_paper(settings)
                                     : trace_census(settings);
}

int run(const Args& args) {
  const auto workload = parse_workload(args.workload);
  if (!workload.has_value()) usage("unknown workload " + args.workload);
  const std::size_t nproc =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);

  Settings settings;
  settings.workload = *workload;
  settings.seed = args.seed;
  settings.threads = std::min(default_threads(*workload), nproc);
  settings.expected_dir = std::string(PERFBENCH_SOURCE_DIR) + "/expected";
  settings.spill_dir =
      !args.spill_dir.empty()
          ? args.spill_dir
          : std::string(PERFBENCH_SOURCE_DIR) + "/../.bench_build/spill/" +
                args.workload + "-" + std::to_string(::getpid());

  std::printf(
      "perfbench workload=%s seed=%" PRIu64 " slot=%" PRIu64
      " threads=%zu nproc=%zu build_type=%s trace=%d seconds=%g\n",
      args.workload.c_str(), settings.seed, settings.slot(), settings.threads,
      nproc, PERFBENCH_BUILD_TYPE, args.trace, args.seconds);
  // Fail closed before any work: the memory counter must be readable.
  status_kb("VmHWM");

  if (args.write_expected) {
    const Sample sample = run_untraced(settings);
    std::ofstream out(settings.expected_path());
    out << sample.summary.to_json();
    out.close();
    if (!out) throw std::runtime_error("cannot write " + settings.expected_path());
    std::printf("wrote %s\n", settings.expected_path().c_str());
    return 0;
  }

  const Summary expected = Summary::load(settings.expected_path());
  const bool trace = args.trace == 1;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  // The first iteration's peak is what one run in a fresh process costs;
  // later iterations' peaks drift up by 2-10% with heap the allocator
  // keeps from earlier ones. Its scores equal every other iteration's, as
  // the summary check covers them.
  double peak_rss_mb = 0.0;
  std::optional<Scores> scores;
  const auto run_checked = [&](const char* what, std::size_t iteration) {
    ++attempted;
    Sample sample = run_untraced(settings);
    if (!check(sample.summary, expected, what, iteration)) ++failed;
    if (!scores.has_value()) {
      peak_rss_mb = static_cast<double>(status_kb("VmHWM")) / 1024.0;
      scores = sample.scores;
    }
    return sample;
  };

  // paper_* warm up with one untimed, checked iteration, so that every
  // timed iteration reuses heap rather than first-touching a ~550 MB one.
  // census_sweep's heap is ~20 MB and flat, its first iteration times
  // like the later ones (26.53 s against 26.77 s in one process), and a
  // warm-up would double its run.
  if (is_paper(settings.workload)) {
    const Sample warm_up = run_checked("warm-up", 0);
    std::fprintf(stderr,
                 "perfbench: warm-up setup_s=%.6g run_s=%.4f cpu_s=%.4f\n",
                 warm_up.setup_s, warm_up.run_s, warm_up.cpu_s);
  }

  std::vector<double> setup_s, run_s, cpu_s, iteration_s;
  std::vector<TracedRun> traced;
  const double start = wall_seconds();
  // Start another iteration only while it is expected to end inside the
  // window; the minimum number of iterations always runs.
  const auto more = [&](std::size_t done) {
    if (done < (trace ? kMinTracedIterations : kMinIterations)) return true;
    const double elapsed = wall_seconds() - start;
    return elapsed + median(iteration_s) <= args.seconds;
  };
  for (std::size_t i = 0; more(i); ++i) {
    const double iteration_start = wall_seconds();
    // Tracing alternates traced and untraced iterations, traced first.
    if (trace && i % 2 == 0) {
      ++attempted;
      TracedRun run = run_traced(settings);
      if (!check(run.summary, expected, "traced", i + 1)) ++failed;
      traced.push_back(std::move(run));
    } else {
      const Sample sample = run_checked("untraced", i + 1);
      setup_s.push_back(sample.setup_s);
      run_s.push_back(sample.run_s);
      cpu_s.push_back(sample.cpu_s);
      std::fprintf(stderr,
                   "perfbench: iteration %zu setup_s=%.6g run_s=%.4f "
                   "cpu_s=%.4f iteration_s=%.4f\n",
                   i + 1, sample.setup_s, sample.run_s, sample.cpu_s,
                   wall_seconds() - iteration_start);
    }
    iteration_s.push_back(wall_seconds() - iteration_start);
  }
  remove_directory(settings.spill_dir);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"run_s", median(run_s), "s"},
        {"cpu_s", median(cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"alias_precision", scores->alias_precision(), "ratio"},
        {"alias_recall", scores->alias_recall(), "ratio"},
        {"vendor_accuracy", scores->vendor_accuracy(), "ratio"},
    };
  } else {
    std::map<std::string, std::vector<double>> values;
    std::vector<double> traced_wall;
    for (const auto& run : traced) {
      traced_wall.push_back(run.wall_s);
      for (const auto& [name, value] : run.ledger.entries())
        values[name].push_back(value);
    }
    const double untraced = median(run_s);
    values["trace_overhead_pct"] = {100.0 * (median(traced_wall) - untraced) /
                                    untraced};
    for (const auto& spec : per_layer_metrics()) {
      const auto it = values.find(spec.name);
      if (it == values.end() || it->second.empty())
        throw std::runtime_error(std::string("ledger lacks ") + spec.name);
      metrics.push_back({spec.name, median(it->second), spec.unit});
    }
  }

  std::printf("%s\n", result_line(failed == 0, attempted, failed, metrics).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
