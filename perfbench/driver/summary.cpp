#include "summary.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

namespace scan = snmpv3fp::scan;
namespace sim = snmpv3fp::sim;

namespace {

// FNV-1a over a byte stream; fields are length- or width-delimited so
// that no two different records feed the same bytes.
class Digest {
 public:
  void bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      state_ ^= data[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t value) {
    std::uint8_t raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(value >> (8 * i));
    bytes(raw, sizeof raw);
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void address(const net::IpAddress& address) {
    if (address.is_v4()) {
      u64(4);
      u64(address.v4().value());
    } else {
      u64(6);
      bytes(address.v6().bytes().data(), address.v6().bytes().size());
    }
  }
  void blob(const std::vector<std::uint8_t>& data) {
    u64(data.size());
    bytes(data.data(), data.size());
  }
  void text(std::string_view value) {
    u64(value.size());
    bytes(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void add_fabric(Summary& summary, const std::string& prefix,
                const sim::FabricStats& fabric) {
  summary.add(prefix + "sent", fabric.datagrams_sent);
  summary.add(prefix + "delivered", fabric.datagrams_delivered);
  summary.add(prefix + "dead", fabric.probes_dead);
  summary.add(prefix + "lost", fabric.probes_lost);
  summary.add(prefix + "filtered", fabric.probes_filtered);
  summary.add(prefix + "rate_limited", fabric.probes_rate_limited);
  summary.add(prefix + "responses_generated", fabric.responses_generated);
  summary.add(prefix + "responses_received", fabric.responses_received);
  summary.add(prefix + "responses_lost", fabric.responses_lost);
  summary.add(prefix + "responses_duplicated", fabric.responses_duplicated);
}

void add_scores(Summary& summary, const Scores& scores) {
  summary.add("score.inferred_pairs", scores.pairs.inferred_pairs);
  summary.add("score.correct_pairs", scores.pairs.correct_pairs);
  summary.add("score.truth_pairs", scores.pairs.truth_pairs);
  summary.add("score.vendor_correct", scores.vendor_correct);
  summary.add("score.vendor_total", scores.vendor_total);
}

void add_scan(Summary& summary, const std::string& prefix,
              const scan::ScanResult& result) {
  summary.add(prefix + "targets", result.targets_probed);
  summary.add(prefix + "responsive", result.responsive());
  summary.add(prefix + "engine_ids", result.unique_engine_ids());
  summary.add(prefix + "undecodable", result.undecodable_responses);
}

}  // namespace

void Summary::add(std::string name, std::uint64_t value) {
  entries_.emplace_back(std::move(name), std::to_string(value));
}

void Summary::add_digest(std::string name, std::uint64_t digest) {
  char hex[19];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  entries_.emplace_back(std::move(name), snmpv3fp::obs::json_escape(hex));
}

std::string Summary::to_json() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "  " + snmpv3fp::obs::json_escape(entries_[i].first) + ": " +
           entries_[i].second;
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

Summary Summary::load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open())
    throw std::runtime_error("cannot open expected summary " + path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof())
    throw std::runtime_error("cannot read expected summary " + path);
  const auto parsed = snmpv3fp::obs::JsonValue::parse(text.str());
  if (!parsed || !parsed->is_object() || parsed->members().empty())
    throw std::runtime_error("malformed expected summary " + path);
  Summary summary;
  for (const auto& [name, value] : parsed->members()) {
    using Kind = snmpv3fp::obs::JsonValue::Kind;
    if (value.kind() == Kind::kString) {
      summary.entries_.emplace_back(name,
                                    snmpv3fp::obs::json_escape(value.as_string()));
    } else if (value.kind() == Kind::kNumber && value.as_number() >= 0 &&
               value.as_number() < 9007199254740992.0 &&
               std::floor(value.as_number()) == value.as_number()) {
      summary.entries_.emplace_back(
          name, std::to_string(static_cast<std::uint64_t>(value.as_number())));
    } else {
      throw std::runtime_error("expected summary " + path +
                               " holds a non-count value at " + name);
    }
  }
  return summary;
}

std::vector<std::string> Summary::differences(const Summary& expected) const {
  std::map<std::string, std::string> want(expected.entries_.begin(),
                                          expected.entries_.end());
  std::vector<std::string> out;
  for (const auto& [name, value] : entries_) {
    const auto it = want.find(name);
    if (it == want.end()) {
      out.push_back(name + ": not expected (got " + value + ")");
      continue;
    }
    if (it->second != value)
      out.push_back(name + ": expected " + it->second + ", got " + value);
    want.erase(it);
  }
  for (const auto& [name, value] : want)
    out.push_back(name + ": missing (expected " + value + ")");
  return out;
}

Summary summarize_paper(const core::PipelineResult& result,
                        const core::RunReport& report, const Scores& scores) {
  Summary summary;
  summary.add("world.devices", result.world.devices.size());
  summary.add("prescan.prefixes_tested",
              result.aliased_prefixes.prefixes_tested);
  summary.add("prescan.aliased_prefixes",
              result.aliased_prefixes.aliased_prefixes.size());
  summary.add("hitlist_v6.targets", result.hitlist_v6.size());
  summary.add("router_addresses", result.router_addresses.size());

  struct Family {
    const char* name;
    const scan::CampaignPair* campaign;
    const core::JoinStats* join;
    const core::FilterReport* funnel;
  };
  const Family families[] = {
      {"v6", &result.v6_campaign, &result.v6_join_stats, &result.v6_report},
      {"v4", &result.v4_campaign, &result.v4_join_stats, &result.v4_report}};
  for (const auto& family : families) {
    const std::string prefix = std::string(family.name) + ".";
    add_scan(summary, prefix + "scan1.", family.campaign->scan1);
    add_scan(summary, prefix + "scan2.", family.campaign->scan2);
    add_fabric(summary, prefix + "fabric.", family.campaign->fabric_stats);
    summary.add(prefix + "join.first_only", family.join->first_only);
    summary.add(prefix + "join.second_only", family.join->second_only);
    summary.add(prefix + "join.overlap", family.join->overlap);
    summary.add(prefix + "funnel.input", family.funnel->input);
    for (std::size_t stage = 0; stage < core::kFilterStageCount; ++stage)
      summary.add(prefix + "funnel.dropped." +
                      std::string(core::to_slug(
                          static_cast<core::FilterStage>(stage))),
                  family.funnel->dropped[stage]);
    summary.add(prefix + "funnel.valid_engine_id",
                family.funnel->valid_engine_id_count());
    summary.add(prefix + "funnel.output", family.funnel->output);
  }
  for (const auto& funnel : report.funnels)
    summary.add("report.funnel." + funnel.family + ".output", funnel.output);
  summary.add("alias.sets", report.alias.sets);
  summary.add("alias.non_singleton_sets", report.alias.non_singleton_sets);
  summary.add("alias.ips_in_non_singletons", report.alias.ips_in_non_singletons);
  summary.add("alias.dual_stack_sets", report.alias.dual_stack_sets);
  summary.add("devices", result.devices.size());
  summary.add("devices.routers", result.router_device_count());
  add_scores(summary, scores);

  Digest sets;
  for (const auto& set : result.resolution.sets) {
    sets.u64(set.addresses.size());
    for (const auto& address : set.addresses) sets.address(address);
    sets.blob(set.engine_id.raw());
    sets.u64(set.engine_boots);
    sets.i64(set.last_reboot);
  }
  summary.add_digest("digest.alias_sets", sets.value());
  Digest devices;
  for (const auto& device : result.devices) {
    devices.text(device.fingerprint.vendor);
    devices.u64(static_cast<std::uint64_t>(device.fingerprint.source));
    devices.u64(static_cast<std::uint64_t>(device.stack));
    devices.u64(device.is_router);
    devices.u64(device.as_info.has_value() ? device.as_info->asn + 1ULL : 0);
    devices.i64(device.last_reboot);
  }
  summary.add_digest("digest.devices", devices.value());
  return summary;
}

Summary summarize_census(const scan::CampaignPair& pair, const Scores& scores) {
  Summary summary;
  add_scan(summary, "scan1.", pair.scan1);
  add_scan(summary, "scan2.", pair.scan2);
  add_fabric(summary, "fabric.", pair.fabric_stats);
  add_scores(summary, scores);
  Digest responders;
  for (const auto* result : {&pair.scan1, &pair.scan2}) {
    const auto status =
        result->for_each_record([&responders](const scan::ScanRecord& record) {
          responders.address(record.target);
          responders.blob(record.engine_id.raw());
          responders.u64(record.engine_boots);
          responders.u64(record.engine_time);
          responders.i64(record.send_time);
          responders.i64(record.receive_time);
          responders.u64(record.response_count);
        });
    if (!status.ok())
      throw std::runtime_error("census scan records unreadable");
  }
  summary.add_digest("digest.responders", responders.value());
  return summary;
}

}  // namespace perfbench
