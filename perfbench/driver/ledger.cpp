#include "ledger.hpp"

#include <span>
#include <stdexcept>
#include <string_view>

#include "core/overlap.hpp"
#include "core/report.hpp"
#include "proc.hpp"
#include "scan/aliased_prefix.hpp"
#include "topo/datasets.hpp"
#include "topo/generator.hpp"

namespace perfbench {

namespace obs = snmpv3fp::obs;
namespace sim = snmpv3fp::sim;

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> metrics = {
      {"topo.world_build_ms", "ms"},
      {"topo.world_mb", "MB"},
      {"topo.datasets_ms", "ms"},
      {"topo.datasets.cpu_ms", "ms"},
      {"topo.datasets.items_out", "count"},
      {"topo.churn_ms", "ms"},
      {"topo.responder_cache_hit_rate", "ratio"},
      {"topo.responder_cache_misses", "count"},
      {"scan.prescan_ms", "ms"},
      {"scan.prescan.cpu_ms", "ms"},
      {"scan.prescan.items_in", "count"},
      {"scan.prescan.items_out", "count"},
      {"scan.v6.campaign_ms", "ms"},
      {"scan.v6.campaign.cpu_ms", "ms"},
      {"scan.v6.scans_ms", "ms"},
      {"scan.v6.between_scans_ms", "ms"},
      {"scan.v4.campaign_ms", "ms"},
      {"scan.v4.campaign.cpu_ms", "ms"},
      {"scan.v4.scans_ms", "ms"},
      {"scan.v4.between_scans_ms", "ms"},
      {"scan.probes", "count"},
      {"scan.responses", "count"},
      {"scan.response_ratio", "ratio"},
      {"scan.probes_per_s", "1/s"},
      {"scan.cpu_ms", "ms"},
      {"sim.delivered", "count"},
      {"sim.dead", "count"},
      {"sim.lost", "count"},
      {"sim.duplicated", "count"},
      {"wire.fast_parses", "count"},
      {"wire.fallbacks", "count"},
      {"wire.fallback_ratio", "ratio"},
      {"store.sealed_blocks", "count"},
      {"store.spilled_blocks", "count"},
      {"store.evicted_blocks", "count"},
      {"store.patched_records", "count"},
      {"store.bytes_on_disk", "bytes"},
      {"core.join_ms", "ms"},
      {"core.join.cpu_ms", "ms"},
      {"core.join.rows_in", "count"},
      {"core.join.rows_out", "count"},
      {"core.filter_ms", "ms"},
      {"core.filter.cpu_ms", "ms"},
      {"core.filter.rows_in", "count"},
      {"core.filter.rows_out", "count"},
      {"core.join_filter_ms", "ms"},
      {"core.join_filter.cpu_ms", "ms"},
      {"core.overlap.producer_stall_us", "us"},
      {"core.overlap.consumer_stall_us", "us"},
      {"core.alias_ms", "ms"},
      {"core.alias.cpu_ms", "ms"},
      {"core.alias.rows_in", "count"},
      {"core.alias.sets", "count"},
      {"core.annotate_ms", "ms"},
      {"core.annotate.cpu_ms", "ms"},
      {"core.annotate.devices", "count"},
      {"core.report_ms", "ms"},
      {"core.report.cpu_ms", "ms"},
      {"traced_run_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"trace_overhead_pct", "%"},
  };
  return metrics;
}

void Ledger::set(const std::string& name, double value) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = value;
      return;
    }
  }
  entries_.emplace_back(name, value);
}

void Ledger::add(const std::string& name, double value) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second += value;
      return;
    }
  }
  entries_.emplace_back(name, value);
}

double Ledger::get(const std::string& name) const {
  for (const auto& entry : entries_)
    if (entry.first == name) return entry.second;
  return 0.0;
}

namespace {

// Times the churn-related model calls a campaign makes between (and
// before) its scans; everything else passes straight through.
class TimedModel final : public topo::WorldModel {
 public:
  explicit TimedModel(topo::WorldModel& inner) : inner_(inner) {}

  std::unique_ptr<topo::DeviceView> open_view() const override {
    return inner_.open_view();
  }
  void apply_churn(std::uint64_t epoch_seed) override {
    const Stopwatch watch;
    inner_.apply_churn(epoch_seed);
    churn_s_ += watch.wall();
  }
  std::vector<net::IpAddress> campaign_targets(
      net::Family family, std::uint64_t churn_seed) const override {
    const Stopwatch watch;
    auto targets = inner_.campaign_targets(family, churn_seed);
    churn_s_ += watch.wall();
    return targets;
  }
  std::vector<net::IpAddress> hitlist_v6(std::uint64_t seed) const override {
    return inner_.hitlist_v6(seed);
  }
  topo::World materialize() const override { return inner_.materialize(); }

  double churn_seconds() const { return churn_s_; }

 private:
  topo::WorldModel& inner_;
  mutable double churn_s_ = 0.0;
};

// Times top-level layer calls; their walls must add up to the run.
class LayerClock {
 public:
  explicit LayerClock(Ledger& ledger) : ledger_(ledger) {}

  template <typename Body>
  void time(const std::string& layer, Body&& body) {
    const Stopwatch watch;
    body();
    const double wall_ms = watch.wall() * 1e3;
    ledger_.add(layer + "_ms", wall_ms);
    ledger_.add(layer + ".cpu_ms", watch.cpu() * 1e3);
    attributed_ms_ += wall_ms;
  }

  double attributed_ms() const { return attributed_ms_; }

 private:
  Ledger& ledger_;
  double attributed_ms_ = 0.0;
};

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

double sum_counters(const obs::MetricsSnapshot& metrics,
                    std::string_view suffix) {
  double total = 0.0;
  for (const auto& row : metrics.counters)
    if (ends_with(row.name, suffix)) total += static_cast<double>(row.value);
  return total;
}

double span_ms(const std::vector<obs::SpanRecord>& spans,
               const std::string& name) {
  double total = 0.0;
  for (const auto& span : spans)
    if (span.name == name) total += span.wall_ms;
  return total;
}

// Every metric at 0.
Ledger zero_ledger() {
  Ledger ledger;
  for (const auto& metric : per_layer_metrics()) ledger.set(metric.name, 0.0);
  return ledger;
}

// Times `build` and measures the heap the built world holds.
template <typename Build>
auto build_world(Ledger& ledger, Build&& build) {
  const double before = static_cast<double>(heap_bytes());
  const Stopwatch watch;
  auto world = build();
  ledger.set("topo.world_build_ms", watch.wall() * 1e3);
  ledger.set("topo.world_mb",
             (static_cast<double>(heap_bytes()) - before) / (1024.0 * 1024.0));
  return world;
}

// Campaign split, scan-layer totals and fabric witnesses of one campaign.
void record_campaign(Ledger& ledger, const std::string& family,
                     const scan::CampaignPair& pair,
                     const std::vector<obs::SpanRecord>& spans) {
  const std::string prefix = "scan." + family + ".";
  const double campaign_ms = ledger.get(prefix + "campaign_ms");
  const double scans_ms = span_ms(spans, "pipeline." + family + ".scan1") +
                          span_ms(spans, "pipeline." + family + ".scan2");
  ledger.set(prefix + "scans_ms", scans_ms);
  ledger.set(prefix + "between_scans_ms", campaign_ms - scans_ms);
  ledger.add("scan.probes", static_cast<double>(pair.scan1.targets_probed +
                                                pair.scan2.targets_probed));
  ledger.add("scan.responses", static_cast<double>(pair.scan1.responsive() +
                                                   pair.scan2.responsive()));
  ledger.add("sim.delivered",
             static_cast<double>(pair.fabric_stats.datagrams_delivered));
  ledger.add("sim.dead", static_cast<double>(pair.fabric_stats.probes_dead));
  ledger.add("sim.lost", static_cast<double>(pair.fabric_stats.probes_lost));
  ledger.add("sim.duplicated",
             static_cast<double>(pair.fabric_stats.responses_duplicated));
  ledger.add("topo.responder_cache_misses",
             static_cast<double>(pair.responder_cache.misses));
}

// Ratios, scan throughput and the observer's counters, once all layers ran.
void finish_ledger(Ledger& ledger, const obs::RunObserver& observer,
                   const std::vector<const scan::CampaignPair*>& campaigns,
                   double wall_ms, double attributed_ms) {
  const double probes = ledger.get("scan.probes");
  const double campaign_ms =
      ledger.get("scan.v4.campaign_ms") + ledger.get("scan.v6.campaign_ms");
  ledger.set("scan.cpu_ms", ledger.get("scan.v4.campaign.cpu_ms") +
                                ledger.get("scan.v6.campaign.cpu_ms"));
  ledger.set("scan.response_ratio",
             probes > 0 ? ledger.get("scan.responses") / probes : 0.0);
  ledger.set("scan.probes_per_s",
             campaign_ms > 0 ? probes / (campaign_ms / 1e3) : 0.0);

  topo::WorldCacheStats cache;
  for (const auto* pair : campaigns) cache += pair->responder_cache;
  ledger.set("topo.responder_cache_hit_rate", cache.hit_rate());

  const obs::MetricsSnapshot metrics = observer.metrics().snapshot();
  const double fast = sum_counters(metrics, ".wire.fast_parses");
  const double fallbacks = sum_counters(metrics, ".wire.parse_fallbacks");
  ledger.set("wire.fast_parses", fast);
  ledger.set("wire.fallbacks", fallbacks);
  ledger.set("wire.fallback_ratio",
             fast + fallbacks > 0 ? fallbacks / (fast + fallbacks) : 0.0);
  for (const char* counter : {"sealed_blocks", "spilled_blocks",
                              "evicted_blocks", "patched_records"})
    ledger.set(std::string("store.") + counter,
               sum_counters(metrics, std::string(".store.") + counter));
  ledger.set("core.overlap.producer_stall_us",
             sum_counters(metrics, ".overlap.producer_stall_us"));
  ledger.set("core.overlap.consumer_stall_us",
             sum_counters(metrics, ".overlap.consumer_stall_us"));

  ledger.set("traced_run_ms", wall_ms);
  ledger.set("unattributed_ms", wall_ms - attributed_ms);
}

obs::ObsOptions root_obs(obs::RunObserver& observer) {
  obs::ObsOptions options;
  options.observer = &observer;
  options.scope = "pipeline";
  return options;
}

}  // namespace

TracedRun trace_paper(const Settings& settings) {
  const core::PipelineOptions options = paper_options(settings);
  const bool spill = settings.workload == Workload::kPaperSpill;
  TracedRun out;
  out.ledger = zero_ledger();
  Ledger& ledger = out.ledger;

  topo::World world = build_world(ledger, [&options] {
    return topo::generate_world(options.world);
  });
  if (spill) reset_directory(settings.spill_dir);

  obs::RunObserver observer;
  const obs::ObsOptions obs = root_obs(observer);
  topo::MaterializedWorldModel materialized(world);
  TimedModel model(materialized);
  LayerClock clock(ledger);
  core::PipelineResult result;
  core::RunReport report;
  const Stopwatch total;

  // The body of core::run_full_pipeline (sim fabric, no checkpoints), one
  // layer call at a time.
  clock.time("topo.datasets", [&] {
    result.as_table = topo::build_as_table(world);
    result.itdk_v4 = topo::export_itdk_v4(world, options.datasets);
    result.itdk_v6 = topo::export_itdk_v6(world, options.datasets);
    result.atlas = topo::export_atlas(world, options.datasets);
    result.hitlist_v6 = topo::export_hitlist_v6(world, options.seed);
  });
  ledger.set("scan.prescan.items_in",
             static_cast<double>(result.hitlist_v6.size()));
  if (options.exclude_aliased_prefixes && !result.hitlist_v6.empty()) {
    clock.time("scan.prescan", [&] {
      sim::FabricConfig prescan_config = options.fabric;
      prescan_config.seed = options.seed ^ 0xa11a5ed;
      sim::Fabric prescan(model, prescan_config);
      result.aliased_prefixes = scan::detect_aliased_prefixes(
          prescan, {net::Ipv4(198, 51, 100, 7), 54320}, result.hitlist_v6);
      result.hitlist_v6 =
          scan::filter_aliased(result.hitlist_v6, result.aliased_prefixes);
    });
  }
  ledger.set("scan.prescan.items_out",
             static_cast<double>(result.hitlist_v6.size()));
  clock.time("topo.datasets", [&] {
    for (const auto* dataset :
         {&result.itdk_v4, &result.itdk_v6, &result.atlas})
      result.router_addresses.insert(dataset->addresses.begin(),
                                     dataset->addresses.end());
  });
  ledger.set("topo.datasets.items_out",
             static_cast<double>(result.router_addresses.size() +
                                 result.hitlist_v6.size()));

  const auto campaign_options = [&](net::Family family) {
    const bool v6 = family == net::Family::kIpv6;
    scan::CampaignOptions campaign;
    campaign.family = family;
    if (v6) campaign.targets = result.hitlist_v6;
    campaign.first_scan_start = v6 ? 0 : 3 * snmpv3fp::util::kDay;
    campaign.scan_gap = v6 ? options.v6_scan_gap : options.v4_scan_gap;
    campaign.rate_pps = v6 ? options.v6_rate_pps : options.v4_rate_pps;
    campaign.seed = options.seed + (v6 ? 1 : 2);
    campaign.shards = options.scan_shards;
    campaign.parallel = options.parallel;
    campaign.obs = obs.sub(v6 ? "v6" : "v4");
    campaign.pacer = options.pacer;
    campaign.wire_fast_path = options.wire_fast_path;
    campaign.fabric = options.fabric;
    if (!options.store.dir.empty()) {
      campaign.store = options.store;
      campaign.store.dir = options.store.dir + (v6 ? "/v6" : "/v4");
    }
    return campaign;
  };
  if (options.scan_ipv6) {
    const scan::CampaignOptions v6 = campaign_options(net::Family::kIpv6);
    clock.time("scan.v6.campaign", [&] {
      result.v6_campaign = scan::run_two_scan_campaign(model, v6);
    });
  }
  const scan::CampaignOptions v4 = campaign_options(net::Family::kIpv4);
  clock.time("scan.v4.campaign", [&] {
    result.v4_campaign = scan::run_two_scan_campaign(model, v4);
  });
  if (result.v6_campaign.interrupted || result.v4_campaign.interrupted)
    throw std::runtime_error("traced campaign interrupted");

  const core::FilterPipeline pipeline(options.filter);
  const auto join_filter = [&](const scan::CampaignPair& campaign,
                               core::JoinStats& stats,
                               std::vector<core::JoinedRecord>& joined,
                               std::vector<core::JoinedRecord>& records,
                               core::FilterReport& filter_report,
                               const obs::ObsOptions& family_obs) {
    ledger.add("core.join.rows_in",
               static_cast<double>(campaign.scan1.responsive() +
                                   campaign.scan2.responsive()));
    if (options.columnar && campaign.scan1.store_backed() &&
        campaign.scan2.store_backed()) {
      core::OverlapOutcome outcome;
      clock.time("core.join_filter", [&] {
        outcome = core::join_filter_overlapped(
            campaign.scan1, campaign.scan2, pipeline, options.parallel,
            family_obs);
      });
      // run_full_pipeline would fall back to the materializing join here;
      // a benchmark that silently measured the fallback would mislead.
      if (!outcome.ok)
        throw std::runtime_error("overlapped join+filter failed on the spill path");
      stats = outcome.stats;
      joined = std::move(outcome.joined);
      records = std::move(outcome.survivors);
      filter_report = outcome.report;
    } else {
      clock.time("core.join", [&] {
        joined = core::join_scans(campaign.scan1, campaign.scan2, &stats,
                                  options.parallel);
      });
      clock.time("core.filter", [&] {
        filter_report = pipeline.apply_columnar(joined, records,
                                                options.parallel, family_obs);
      });
    }
    ledger.add("core.join.rows_out", static_cast<double>(joined.size()));
    ledger.add("core.filter.rows_in", static_cast<double>(filter_report.input));
    ledger.add("core.filter.rows_out",
               static_cast<double>(filter_report.output));
  };
  join_filter(result.v4_campaign, result.v4_join_stats, result.v4_joined,
              result.v4_records, result.v4_report, obs.sub("v4"));
  join_filter(result.v6_campaign, result.v6_join_stats, result.v6_joined,
              result.v6_records, result.v6_report, obs.sub("v6"));

  clock.time("core.alias", [&] {
    const std::span<const core::JoinedRecord> parts[] = {result.v4_records,
                                                         result.v6_records};
    result.resolution = core::resolve_aliases(
        std::span<const std::span<const core::JoinedRecord>>(parts),
        options.alias, options.parallel, obs);
  });
  ledger.set("core.alias.rows_in",
             static_cast<double>(result.v4_records.size() +
                                 result.v6_records.size()));
  ledger.set("core.alias.sets",
             static_cast<double>(result.resolution.sets.size()));
  clock.time("core.annotate", [&] {
    result.devices = core::annotate_devices(result.resolution, result.as_table,
                                            result.router_addresses);
  });
  ledger.set("core.annotate.devices",
             static_cast<double>(result.devices.size()));
  result.world = std::move(world);
  clock.time("core.report", [&] {
    report = core::build_run_report(result, options, nullptr);
  });
  out.wall_s = total.wall();

  const auto spans = observer.trace().snapshot();
  if (options.scan_ipv6)
    record_campaign(ledger, "v6", result.v6_campaign, spans);
  record_campaign(ledger, "v4", result.v4_campaign, spans);
  ledger.set("topo.churn_ms", model.churn_seconds() * 1e3);
  if (spill) {
    ledger.set("core.join_ms", span_ms(spans, "pipeline.v4.overlap.produce") +
                                   span_ms(spans, "pipeline.v6.overlap.produce"));
    ledger.set("store.bytes_on_disk",
               static_cast<double>(directory_bytes(settings.spill_dir)));
  }
  finish_ledger(ledger, observer, {&result.v6_campaign, &result.v4_campaign},
                out.wall_s * 1e3, clock.attributed_ms());

  const Scores scores =
      score(result.resolution, result.devices, world_truth(result.world));
  out.summary = summarize_paper(result, report, scores);
  if (spill) remove_directory(settings.spill_dir);
  return out;
}

TracedRun trace_census(const Settings& settings) {
  const topo::ProceduralConfig config = census_config(settings);
  TracedRun out;
  out.ledger = zero_ledger();
  Ledger& ledger = out.ledger;

  topo::ProceduralWorld world =
      build_world(ledger, [&config] { return topo::ProceduralWorld(config); });

  obs::RunObserver observer;
  scan::CampaignOptions options = census_options(settings, config);
  options.obs = root_obs(observer).sub("v4");
  TimedModel model(world);
  LayerClock clock(ledger);
  scan::CampaignPair pair;
  const Stopwatch total;
  clock.time("scan.v4.campaign",
             [&] { pair = scan::run_two_scan_campaign(model, options); });
  out.wall_s = total.wall();

  record_campaign(ledger, "v4", pair, observer.trace().snapshot());
  ledger.set("topo.churn_ms", model.churn_seconds() * 1e3);
  finish_ledger(ledger, observer, {&pair}, out.wall_s * 1e3,
                clock.attributed_ms());

  out.summary = summarize_census(pair, score_census(pair, world, settings));
  return out;
}

}  // namespace perfbench
