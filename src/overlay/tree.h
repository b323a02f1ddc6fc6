// TreeBuilder: distribution-tree construction over an overlay population.
//
// Two ideas from the overlay-streaming literature, composed:
//
//  * Multiple-tree striping ("Multiple-Tree Push-based Overlay Streaming"):
//    the stream's segments round-robin across k trees (segment seq rides
//    tree seq % k), and the trees are INTERIOR-DISJOINT — receiver r may
//    relay (have children) only in tree r % k, and is a leaf in the other
//    k-1.  A receiver failure therefore cuts at most one stripe; the other
//    k-1 keep flowing while that one tree repairs.  This is Pandora's P6
//    (operations on one copy never disturb the others) promoted from one
//    switch to a city of them.  It also means each receiver needs only one
//    child list, stored as a flat fanout-bounded row (StripedTrees).
//
//  * Near-optimal-delay interior ordering ("Deterministic Near-Optimal P2P
//    Streaming"): both policies fill the same heap-shaped left-complete
//    f-ary tree (FIFO parent queue), so positions acquire subtree sizes
//    that are non-increasing in attach order.  kNearOptimalDelay assigns
//    interior nodes to those positions in ascending uplink-latency order;
//    by the rearrangement inequality the sum of latency(position) x
//    subtree_size(position) — i.e. total delivery delay — is minimal over
//    all assignments of the same interior set to the same shape.  The
//    property test asserts the resulting mean delay never exceeds
//    kBalancedFanout's as a theorem, not a tuning observation.
#ifndef PANDORA_SRC_OVERLAY_TREE_H_
#define PANDORA_SRC_OVERLAY_TREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/overlay/topology.h"

namespace pandora {

// `parent` sentinels: a receiver hangs off the stream source, or is
// currently absent from the overlay (churned out / not yet joined).
inline constexpr int kOverlaySource = -1;
inline constexpr int kOverlayDetached = -2;

enum class TreePolicy {
  kBalancedFanout,    // interior nodes attach in receiver-id order
  kNearOptimalDelay,  // interior nodes attach in ascending uplink latency
};

struct StripedTrees {
  int stripes = 1;
  int fanout = 8;
  TreePolicy policy = TreePolicy::kBalancedFanout;
  // parent[t][r]: r's parent in tree t (receiver id, kOverlaySource, or
  // kOverlayDetached).
  std::vector<std::vector<int>> parent;
  // The child lists mirror `parent`.  Receiver r relays only in its interior
  // tree, so it owns ONE flat row there: child_slots[r * fanout ...], of
  // which the first child_count[r] slots are its children in order.  The
  // source's lists stay vectors, because repair may overload the source
  // past the fanout (TreeRepair::overflow).
  std::vector<int> child_slots;
  std::vector<uint8_t> child_count;
  std::vector<std::vector<int>> root_children;

  int receiver_count() const {
    return parent.empty() ? 0 : static_cast<int>(parent[0].size());
  }
  // Which tree carries segment `seq` — the striping round-robin.
  int tree_of(int64_t seq) const { return static_cast<int>(seq % stripes); }
  // Which tree receiver r may relay in.
  int interior_tree(int r) const { return r % stripes; }
  bool absent(int r) const { return parent[0][static_cast<size_t>(r)] == kOverlayDetached; }

  // Receiver r's children in tree t: its row, empty unless t is r's
  // interior tree.
  std::span<const int> children(int t, int r) const {
    if (t != interior_tree(r)) {
      return {};
    }
    return {child_slots.data() + static_cast<size_t>(r) * static_cast<size_t>(fanout),
            child_count[static_cast<size_t>(r)]};
  }
  // Appends c to p's child list in tree t (p may be kOverlaySource).  A
  // receiver parent must be in interior group t with a free slot (checked).
  void AddChild(int t, int p, int c);
  // Removes c from p's child list in tree t, keeping the others' order.
  void RemoveChild(int t, int p, int c);
};

class TreeBuilder {
 public:
  // Builds k interior-disjoint trees over the full population.  Requires
  // fanout * (smallest interior group + 1) >= receivers so every receiver
  // finds a slot (checked).  Same (topology, stripes, policy) -> same trees.
  static StripedTrees Build(const OverlayTopology& topology, int stripes, TreePolicy policy);
};

// --- Invariant checkers (used by property tests and PANDORA_CHECK sites) ----

// Every present receiver's parent chain reaches the source in every tree.
bool SpansAll(const StripedTrees& trees);
// Every receiver's parent in tree t is the source or in interior group t.
bool InteriorDisjoint(const StripedTrees& trees);
// No child list (including the source's) exceeds the fanout bound.
bool RespectsFanout(const StripedTrees& trees);
// Parent chains terminate (no cycles), even for detached subtrees.
bool IsAcyclic(const StripedTrees& trees);

struct DelayStats {
  double mean_us = 0.0;  // mean source->receiver delay across trees
  Duration max_us = 0;   // deepest delay anywhere
};

// Source->receiver delay per (tree, receiver): the sum of uplink latencies
// down the path (each edge costs the CHILD's access latency).  Absent
// receivers are excluded.
DelayStats ComputeDelayStats(const OverlayTopology& topology, const StripedTrees& trees);

}  // namespace pandora

#endif  // PANDORA_SRC_OVERLAY_TREE_H_
