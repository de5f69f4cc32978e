// The output check: a flat, ordered record of what one run produced.
//
// A paper run's summary holds the Table 1 rows, both filter funnels,
// JoinStats, the fabric accounting, alias-set counts, device counts, the
// ground-truth score counts and digests of every alias set and device
// label. A census run's holds responders, engine IDs and FabricStats per
// campaign plus a digest of every responder record. Each run compares its
// summary with the one committed under perfbench/expected/; any
// difference is a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "scan/campaign.hpp"
#include "scorer.hpp"

namespace perfbench {

class Summary {
 public:
  void add(std::string name, std::uint64_t value);
  void add_digest(std::string name, std::uint64_t digest);  // stored as hex

  // One "name": value pair per line, in insertion order.
  std::string to_json() const;

  // Reads a summary written by to_json(). Throws std::runtime_error when
  // the file is missing, unreadable or malformed.
  static Summary load(const std::string& path);

  // Human-readable lines for every key whose value differs from, or is
  // missing in, `expected` (and every key only `expected` has). Empty
  // when the summaries are identical.
  std::vector<std::string> differences(const Summary& expected) const;

 private:
  // Values kept as their JSON literal text so comparison is exact.
  std::vector<std::pair<std::string, std::string>> entries_;
};

Summary summarize_paper(const snmpv3fp::core::PipelineResult& result,
                        const snmpv3fp::core::RunReport& report,
                        const Scores& scores);

Summary summarize_census(const snmpv3fp::scan::CampaignPair& pair,
                         const Scores& scores);

}  // namespace perfbench
