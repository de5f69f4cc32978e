#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/report.hpp"
#include "proc.hpp"
#include "topo/generator.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "paper_full") return Workload::kPaperFull;
  if (name == "paper_spill") return Workload::kPaperSpill;
  if (name == "census_sweep") return Workload::kCensusSweep;
  return std::nullopt;
}

bool is_paper(Workload workload) { return workload != Workload::kCensusSweep; }

std::string Settings::expected_path() const {
  return expected_dir + (is_paper(workload) ? "/paper" : "/census") + "-slot" +
         std::to_string(slot()) + ".json";
}

core::PipelineOptions paper_options(const Settings& settings) {
  core::PipelineOptions options;
  options.seed = kPaperRunSeed + settings.slot();
  options.parallel.threads = settings.threads;
  if (settings.workload == Workload::kPaperSpill) {
    options.store.dir = settings.spill_dir;
    options.store.max_resident_bytes = kSpillResidentBytes;
  }
  return options;
}

topo::ProceduralConfig census_config(const Settings& settings) {
  topo::ProceduralConfig config = topo::ProceduralConfig::census(kCensusAddresses);
  config.seed = kCensusSeed + settings.slot();
  return config;
}

scan::CampaignOptions census_options(const Settings& settings,
                                     const topo::ProceduralConfig& config) {
  scan::CampaignOptions options;
  options.family = net::Family::kIpv4;
  options.seed = kCensusSeed + settings.slot();
  // bench_world's census rate: virtual time only, it sizes the in-flight
  // window (rate x sent horizon) that keeps memory flat.
  options.rate_pps = 50000.0;
  scan::TargetSpec spec;
  for (const auto& region : config.regions) spec.ranges.push_back(region.v4);
  options.target_spec = spec;
  options.parallel.threads = settings.threads;
  return options;
}

void reset_directory(const std::string& dir) {
  if (dir.empty()) throw std::runtime_error("empty spill directory");
  remove_directory(dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("cannot create " + dir + ": " + ec.message());
  const fs::path probe = fs::path(dir) / ".writable";
  {
    std::ofstream out(probe);
    out << "ok";
    if (!out.good()) throw std::runtime_error("cannot write into " + dir);
  }
  fs::remove(probe, ec);
  if (ec) throw std::runtime_error("cannot clean " + dir + ": " + ec.message());
}

void remove_directory(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (ec) throw std::runtime_error("cannot remove " + dir + ": " + ec.message());
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  if (ec) throw std::runtime_error("cannot size " + dir + ": " + ec.message());
  return total;
}

Sample run_paper(const Settings& settings) {
  const core::PipelineOptions options = paper_options(settings);
  const bool spill = settings.workload == Workload::kPaperSpill;
  Sample sample;
  const Stopwatch setup;
  topo::World world = topo::generate_world(options.world);
  sample.setup_s = setup.wall();
  if (spill) reset_directory(settings.spill_dir);
  {
    const Stopwatch run;
    const core::PipelineResult result =
        core::run_full_pipeline(std::move(world), options);
    const core::RunReport report =
        core::build_run_report(result, options, nullptr);
    sample.run_s = run.wall();
    sample.cpu_s = run.cpu();
    sample.scores =
        score(result.resolution, result.devices, world_truth(result.world));
    sample.summary = summarize_paper(result, report, sample.scores);
  }
  if (spill) remove_directory(settings.spill_dir);
  return sample;
}

Scores score_census(const scan::CampaignPair& pair,
                    const topo::ProceduralWorld& world,
                    const Settings& settings) {
  snmpv3fp::util::ParallelOptions parallel;
  parallel.threads = settings.threads;
  const auto joined = core::join_scans(pair.scan1, pair.scan2, nullptr, parallel);
  std::vector<core::JoinedRecord> survivors;
  core::FilterPipeline().apply_columnar(joined, survivors, parallel);
  const core::AliasResolution resolution =
      core::resolve_aliases(survivors, {}, parallel);
  const auto devices =
      core::annotate_devices(resolution, net::AsTable{}, core::AddressSet{});
  return score(resolution, devices,
               [&world](const net::IpAddress& address)
                   -> std::optional<TrueDevice> {
                 const auto device = world.derive(address);
                 if (!device.has_value()) return std::nullopt;
                 return TrueDevice{device->index,
                                   device->vendor != nullptr
                                       ? std::string_view(device->vendor->name)
                                       : std::string_view()};
               });
}

namespace {

// Seconds of one ProceduralWorld construction. One takes about a
// microsecond, below the clock's steadiness, so constructions are timed in
// ~10 ms batches and the fastest batch counts: the slower ones ran while
// the host slowed this virtual CPU down.
double fastest_construction(const topo::ProceduralConfig& config) {
  const auto construct_batch = [&config](std::size_t count) {
    const Stopwatch watch;
    for (std::size_t i = 0; i < count; ++i) {
      const topo::ProceduralWorld world(config);
      if (world.device_count() == 0)
        throw std::runtime_error("census world derives no device");
    }
    return watch.wall() / static_cast<double>(count);
  };
  const double one = std::max(construct_batch(1), 1e-7);
  const auto count =
      static_cast<std::size_t>(std::clamp(0.01 / one, 1.0, 1e6));
  double fastest = construct_batch(count);
  for (int batch = 1; batch < 20; ++batch)
    fastest = std::min(fastest, construct_batch(count));
  return fastest;
}

}  // namespace

Sample run_census(const Settings& settings) {
  const topo::ProceduralConfig config = census_config(settings);
  const scan::CampaignOptions options = census_options(settings, config);
  Sample sample;
  const double before = fastest_construction(config);
  topo::ProceduralWorld world(config);
  const Stopwatch run;
  const scan::CampaignPair pair = scan::run_two_scan_campaign(world, options);
  sample.run_s = run.wall();
  sample.cpu_s = run.cpu();
  // Batches timed again once the campaign is over: the host slows a
  // virtual CPU for seconds at a time, rarely both before and after.
  sample.setup_s = std::min(before, fastest_construction(config));
  sample.scores = score_census(pair, world, settings);
  sample.summary = summarize_census(pair, sample.scores);
  return sample;
}

}  // namespace perfbench
