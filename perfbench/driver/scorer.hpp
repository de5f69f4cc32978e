// Ground-truth scoring of a run's alias sets and vendor labels.
//
// The simulator knows the device behind every address, so the census can
// be judged the way alias-resolution and vendor-classification studies
// judge theirs: pairwise alias precision/recall over the surviving
// addresses, and the share of inferred devices whose fingerprinted vendor
// is the true one. Pairs are counted per set by device (never enumerated),
// so amplifier and constant-engine-ID sets of 10^5 addresses score in
// linear time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "baselines/compare.hpp"
#include "core/alias.hpp"
#include "core/analytics.hpp"
#include "topo/world.hpp"

namespace perfbench {

namespace core = snmpv3fp::core;
namespace net = snmpv3fp::net;
namespace topo = snmpv3fp::topo;

struct TrueDevice {
  std::uint64_t id = 0;
  std::string_view vendor;  // Device::vendor->name; builtin storage
};

// Maps an address to the device that truly answers there (nullopt: none).
using TruthLookup =
    std::function<std::optional<TrueDevice>(const net::IpAddress&)>;

struct Scores {
  snmpv3fp::baselines::PairMetrics pairs;
  std::size_t vendor_correct = 0;
  std::size_t vendor_total = 0;

  double alias_precision() const { return pairs.precision(); }
  double alias_recall() const { return pairs.recall(); }
  // 0 when there is no device to label: an empty census is not accurate.
  double vendor_accuracy() const {
    return vendor_total == 0 ? 0.0
                             : static_cast<double>(vendor_correct) /
                                   static_cast<double>(vendor_total);
  }
};

// Precision: correct pairs / pairs the sets claim. Recall: correct pairs /
// true pairs among the addresses that reached any set. Vendor: a device
// record is correct when its fingerprint names the vendor of the device
// owning the set's first address; "Unknown" and unowned addresses count
// as wrong.
Scores score(const core::AliasResolution& resolution,
             const std::vector<core::DeviceRecord>& devices,
             const TruthLookup& truth);

// Truth from a materialized world (World::device_index_at).
TruthLookup world_truth(const topo::World& world);

}  // namespace perfbench
