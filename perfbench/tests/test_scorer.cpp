// The ground-truth scorer on hand-built worlds whose scores are known by
// hand: a few devices with deliberate false merges, missed aliases and
// wrong or unknown vendor labels, plus one constant-engine-ID-sized set
// that a pair-enumerating scorer could not finish.
#include <gtest/gtest.h>

#include "scorer.hpp"
#include "topo/vendor.hpp"

namespace perfbench {
namespace {

net::IpAddress v4(std::uint32_t host) { return net::Ipv4(0x0a000000u + host); }

// Adds a device owning `addresses` (IPv4 interfaces) to `world`.
void add_device(topo::World& world, const char* vendor,
                const std::vector<net::IpAddress>& addresses) {
  topo::Device device;
  device.index = static_cast<topo::DeviceIndex>(world.devices.size());
  device.vendor = &topo::vendor_profile(vendor);
  for (const auto& address : addresses) {
    topo::Interface interface;
    interface.v4 = address.v4();
    device.interfaces.push_back(interface);
  }
  world.devices.push_back(device);
}

core::AliasSet make_set(std::vector<net::IpAddress> addresses) {
  core::AliasSet set;
  std::sort(addresses.begin(), addresses.end());
  set.addresses = std::move(addresses);
  return set;
}

core::DeviceRecord label(const core::AliasSet& set, const char* vendor) {
  core::DeviceRecord record;
  record.set = &set;
  record.fingerprint.vendor = vendor;
  return record;
}

TEST(Scorer, HandBuiltWorldScoresAsComputedByHand) {
  topo::World world;
  add_device(world, "Cisco", {v4(1), v4(2), v4(3)});  // device 0
  add_device(world, "Juniper", {v4(11), v4(12)});     // device 1
  add_device(world, "Huawei", {v4(21)});              // device 2
  world.reindex();

  core::AliasResolution resolution;
  // {1, 2, 11}: one correct pair (1-2) of three claimed.
  resolution.sets.push_back(make_set({v4(1), v4(2), v4(11)}));
  resolution.sets.push_back(make_set({v4(3)}));
  resolution.sets.push_back(make_set({v4(12)}));
  resolution.sets.push_back(make_set({v4(21)}));
  // An address no device owns: never a correct pair, never a true pair.
  resolution.sets.push_back(make_set({v4(99)}));
  const std::vector<core::DeviceRecord> devices = {
      label(resolution.sets[0], "Cisco"),    // owner of 10.0.0.1: right
      label(resolution.sets[1], "Unknown"),  // unknown counts as wrong
      label(resolution.sets[2], "Juniper"),  // right
      label(resolution.sets[3], "Cisco"),    // truly Huawei: wrong
      label(resolution.sets[4], "Cisco"),    // no owner: wrong
  };

  const Scores scores = score(resolution, devices, world_truth(world));
  EXPECT_EQ(scores.pairs.inferred_pairs, 3u);
  EXPECT_EQ(scores.pairs.correct_pairs, 1u);
  // Device 0: 3 surviving addresses -> 3 pairs; device 1: 2 -> 1 pair.
  EXPECT_EQ(scores.pairs.truth_pairs, 4u);
  EXPECT_DOUBLE_EQ(scores.alias_precision(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(scores.alias_recall(), 1.0 / 4.0);
  EXPECT_EQ(scores.vendor_correct, 2u);
  EXPECT_EQ(scores.vendor_total, 5u);
  EXPECT_DOUBLE_EQ(scores.vendor_accuracy(), 2.0 / 5.0);
}

TEST(Scorer, PerfectResolutionScoresOne) {
  topo::World world;
  add_device(world, "Cisco", {v4(1), v4(2)});
  add_device(world, "Juniper", {v4(11)});
  world.reindex();
  core::AliasResolution resolution;
  resolution.sets.push_back(make_set({v4(1), v4(2)}));
  resolution.sets.push_back(make_set({v4(11)}));
  const std::vector<core::DeviceRecord> devices = {
      label(resolution.sets[0], "Cisco"), label(resolution.sets[1], "Juniper")};
  const Scores scores = score(resolution, devices, world_truth(world));
  EXPECT_DOUBLE_EQ(scores.alias_precision(), 1.0);
  EXPECT_DOUBLE_EQ(scores.alias_recall(), 1.0);
  EXPECT_DOUBLE_EQ(scores.vendor_accuracy(), 1.0);
}

TEST(Scorer, ConstantEngineIdSetCountsPairsWithoutEnumerating) {
  // 200,000 addresses of 100,000 two-address devices merged into one set
  // (the constant-engine-ID bug): ~2e10 claimed pairs, 1e5 of them true.
  constexpr std::uint32_t kDevices = 100000;
  topo::World world;
  std::vector<net::IpAddress> merged;
  for (std::uint32_t d = 0; d < kDevices; ++d) {
    const std::vector<net::IpAddress> addresses = {v4(2 * d + 1),
                                                   v4(2 * d + 2)};
    add_device(world, "Cisco", addresses);
    merged.insert(merged.end(), addresses.begin(), addresses.end());
  }
  world.reindex();
  core::AliasResolution resolution;
  resolution.sets.push_back(make_set(merged));
  const std::vector<core::DeviceRecord> devices = {
      label(resolution.sets[0], "Cisco")};

  const Scores scores = score(resolution, devices, world_truth(world));
  const std::uint64_t n = 2ULL * kDevices;
  EXPECT_EQ(scores.pairs.inferred_pairs, n * (n - 1) / 2);
  EXPECT_EQ(scores.pairs.correct_pairs, kDevices);
  EXPECT_EQ(scores.pairs.truth_pairs, kDevices);
  EXPECT_DOUBLE_EQ(scores.alias_recall(), 1.0);
  EXPECT_DOUBLE_EQ(scores.vendor_accuracy(), 1.0);
}

}  // namespace
}  // namespace perfbench
