// The benchmark's three workloads and their untraced iterations.
//
//   paper_full    WorldConfig::full_internet() + default PipelineOptions,
//                 all records in RAM: world build, CPE churn, the
//                 response-heavy probe path, in-RAM join/filter/alias.
//   paper_spill   the same run with PipelineOptions::store pointing at a
//                 fresh spill directory under a resident budget far below
//                 the record volume: blocks seal, spill and evict, and
//                 join+filter run on the overlapped streaming path. Its
//                 output must equal paper_full's.
//   census_sweep  ProceduralConfig::census(1 << 24) with a spec-mode
//                 two-scan IPv4 campaign: 2 x 16.8M probes, ~1k responders
//                 per scan, no materialized world, churn map or analysis —
//                 the probe send and dead-drop path.
//
// The driver seed picks one of kSeedSlots committed seeds (slot 0 is the
// paper default), so every run is checked against a committed expected
// summary. The paper workloads keep WorldConfig::full_internet()'s world
// and vary PipelineOptions::seed (scan RNG streams, hitlist sample,
// prescan): world seeds change the world's size by up to a sixth, which
// would spread run_s across slots far beyond the benchmark's bounds. The
// census workload varies both its world and its campaign seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/pipeline.hpp"
#include "scan/campaign.hpp"
#include "summary.hpp"
#include "topo/procedural.hpp"

namespace perfbench {

namespace scan = snmpv3fp::scan;

enum class Workload { kPaperFull, kPaperSpill, kCensusSweep };

// Parses a workload name; nullopt for an unknown one.
std::optional<Workload> parse_workload(const std::string& name);
bool is_paper(Workload workload);

inline constexpr std::uint64_t kSeedSlots = 4;
inline constexpr std::uint64_t kPaperRunSeed = 20210413;    // PipelineOptions default
inline constexpr std::uint64_t kCensusSeed = 20210416;      // bench_world's
inline constexpr std::uint64_t kCensusAddresses = std::uint64_t{1} << 24;
// Resident budget for paper_spill's encoded blocks: a small fraction of
// the ~10^5-record campaigns (each scan shard seals ~0.7 MB), so sealed
// blocks spill and most are evicted.
inline constexpr std::size_t kSpillResidentBytes = std::size_t{64} << 10;

struct Settings {
  Workload workload = Workload::kPaperFull;
  std::uint64_t seed = 0;       // driver seed
  std::size_t threads = 1;      // ParallelOptions::threads
  std::string spill_dir;        // paper_spill's store directory
  std::string expected_dir;     // committed expected summaries

  std::uint64_t slot() const { return seed % kSeedSlots; }
  // The expected-summary file this run is checked against.
  std::string expected_path() const;
};

snmpv3fp::core::PipelineOptions paper_options(const Settings& settings);
snmpv3fp::topo::ProceduralConfig census_config(const Settings& settings);
scan::CampaignOptions census_options(
    const Settings& settings, const snmpv3fp::topo::ProceduralConfig& config);

// Removes and recreates `dir` (empty); throws when it cannot be written.
void reset_directory(const std::string& dir);
// Removes `dir` and everything under it; throws on failure.
void remove_directory(const std::string& dir);
// Total size of the regular files under `dir` (0 when it does not exist).
std::uint64_t directory_bytes(const std::string& dir);

struct Sample {
  double setup_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  Scores scores;
  Summary summary;
};

// One paper run as a user makes it: generate_world, then (timed as run_s)
// run_full_pipeline + build_run_report. paper_spill's directory is reset
// before the run and removed after it.
Sample run_paper(const Settings& settings);

// One census run: the ProceduralWorld constructor, then (timed) the
// spec-mode two-scan campaign. Scoring runs afterwards, untimed. setup_s
// is the per-construction time of the fastest ~10 ms batch of
// constructions, of twenty timed before the campaign and twenty after.
Sample run_census(const Settings& settings);

// Ground-truth scores of a census campaign's responders: join, filter,
// alias and annotate the (~10^3) records, then score them against
// ProceduralWorld::derive.
Scores score_census(const scan::CampaignPair& pair,
                    const snmpv3fp::topo::ProceduralWorld& world,
                    const Settings& settings);

}  // namespace perfbench
