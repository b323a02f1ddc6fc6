// Deterministic city-scale receiver topologies for overlay distribution.
//
// Pandora's split-at-the-switch fan-out (principles 5/6, section 3.4) is
// the 1993 ancestor of overlay multicast: a switch that duplicates buffer
// references to several downstream consumers IS an interior node of a
// distribution tree.  To scale the experiments from one LAN of a handful of
// boxes toward millions of receivers, src/overlay/ composes that fan-out
// recursively: every receiver doubles as a relay whose uplink can carry a
// bounded number of stream copies to children of its own.
//
// The topology generator produces the receiver POPULATION — each receiver's
// access-link quality, drawn from a seeded three-tier distribution (the
// shape WAN measurement studies keep finding: a fast well-connected core, a
// broad middle, and a constrained tail).  Tree STRUCTURE over that
// population is the TreeBuilder's job (src/overlay/tree.h).  Same
// (seed, params) -> byte-identical topology, always; TopologyHash gives the
// golden value determinism tests pin.
#ifndef PANDORA_SRC_OVERLAY_TOPOLOGY_H_
#define PANDORA_SRC_OVERLAY_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "src/runtime/time.h"

namespace pandora {

// One receiver's access link, modeled like a HopQuality but owned by the
// overlay layer: the uplink rate bounds the receiver's relay fan-out, the
// latency is paid by every descendant, and loss strikes copies arriving AT
// this receiver.
struct OverlayLink {
  int64_t bits_per_second = 10'000'000;
  Duration latency = Millis(2);
  double loss_rate = 0.0;
};

// A quality tier plus the fraction of the population drawn from it.
struct LinkClass {
  double fraction = 0.0;  // fractions are normalized over all classes
  OverlayLink link;
  Duration latency_spread = 0;  // extra per-receiver uniform latency in [0, spread)
};

struct TopologyParams {
  uint64_t seed = 1;
  int receivers = 1000;  // 10^3 .. 10^5
  int fanout = 8;        // max children per interior node per tree
  // Default distribution: 60% metro fiber, 30% suburban cable, 10%
  // constrained tail.  All tiers lossless by default so the transitive
  // P5/P6 property tests can assert exact zero loss for unimpaired
  // receivers; benches dial loss in explicitly.
  std::vector<LinkClass> classes = {
      {0.6, {20'000'000, Millis(1), 0.0}, Millis(2)},
      {0.3, {8'000'000, Millis(4), 0.0}, Millis(6)},
      {0.1, {2'000'000, Millis(12), 0.0}, Millis(15)},
  };
};

struct OverlayTopology {
  TopologyParams params;
  std::vector<OverlayLink> links;  // index = receiver id
  int receiver_count() const { return static_cast<int>(links.size()); }
};

// Instantiates the population.  Same (params incl. seed) -> same topology.
OverlayTopology GenerateTopology(const TopologyParams& params);

// FNV-1a over every field of every link (plus the shaping params), for
// golden determinism tests and the overlay run hash.
uint64_t TopologyHash(const OverlayTopology& topology);

// Shared FNV-1a helpers (also folded into ShardedOverlayMulticast::RunHash).
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;
inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace pandora

#endif  // PANDORA_SRC_OVERLAY_TOPOLOGY_H_
