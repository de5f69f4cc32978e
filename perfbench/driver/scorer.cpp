#include "scorer.hpp"

namespace perfbench {

Scores score(const core::AliasResolution& resolution,
             const std::vector<core::DeviceRecord>& devices,
             const TruthLookup& truth) {
  const auto device_id = [&truth](const net::IpAddress& address) {
    const auto device = truth(address);
    return device.has_value() ? static_cast<std::int64_t>(device->id)
                              : std::int64_t{-1};
  };

  snmpv3fp::baselines::AliasSets sets;
  sets.reserve(resolution.sets.size());
  std::vector<net::IpAddress> universe;
  universe.reserve(resolution.total_ips());
  for (const auto& set : resolution.sets) {
    sets.push_back(set.addresses);
    universe.insert(universe.end(), set.addresses.begin(),
                    set.addresses.end());
  }

  Scores scores;
  scores.pairs = snmpv3fp::baselines::pair_metrics(sets, device_id, universe);
  for (const auto& device : devices) {
    ++scores.vendor_total;
    if (device.set == nullptr || device.set->addresses.empty()) continue;
    const auto owner = truth(device.set->addresses.front());
    if (owner.has_value() && device.fingerprint.vendor != "Unknown" &&
        device.fingerprint.vendor == owner->vendor)
      ++scores.vendor_correct;
  }
  return scores;
}

TruthLookup world_truth(const topo::World& world) {
  return [&world](const net::IpAddress& address) -> std::optional<TrueDevice> {
    const topo::DeviceIndex index = world.device_index_at(address);
    if (index == topo::kNoDevice) return std::nullopt;
    const topo::Device& device = world.devices[index];
    return TrueDevice{index, device.vendor != nullptr
                                 ? std::string_view(device.vendor->name)
                                 : std::string_view()};
  };
}

}  // namespace perfbench
