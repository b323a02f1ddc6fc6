#include "src/overlay/tree.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "src/runtime/check.h"

namespace pandora {
namespace {

// One attach step of the heap-style fill: take the oldest parent with a
// free slot, hang `node` off it.  The (parent, slot) sequence this produces
// depends only on counts and fanout — never on which receiver occupies a
// position — which is what makes the two policies share a shape.
struct FillState {
  std::deque<int> open;  // parents with spare slots; front is oldest
  StripedTrees* trees = nullptr;
  int t = 0;

  void Attach(int node, bool interior) {
    while (!open.empty()) {
      const int head = open.front();
      const size_t used = head == kOverlaySource
                              ? trees->root_children[static_cast<size_t>(t)].size()
                              : trees->children(t, head).size();
      if (used < static_cast<size_t>(trees->fanout)) {
        break;
      }
      open.pop_front();
    }
    PANDORA_CHECK(!open.empty());
    const int p = open.front();
    trees->AddChild(t, p, node);
    trees->parent[static_cast<size_t>(t)][static_cast<size_t>(node)] = p;
    if (interior) {
      open.push_back(node);
    }
  }
};

}  // namespace

StripedTrees TreeBuilder::Build(const OverlayTopology& topology, int stripes, TreePolicy policy) {
  const int n = topology.receiver_count();
  PANDORA_CHECK(n > 0);
  PANDORA_CHECK(stripes >= 1);
  const int fanout = topology.params.fanout;

  StripedTrees trees;
  trees.stripes = stripes;
  trees.fanout = fanout;
  trees.policy = policy;
  trees.parent.assign(static_cast<size_t>(stripes), std::vector<int>(static_cast<size_t>(n), kOverlayDetached));
  PANDORA_CHECK(fanout <= UINT8_MAX, "child counts are bytes");
  trees.child_slots.assign(static_cast<size_t>(n) * static_cast<size_t>(fanout), kOverlayDetached);
  trees.child_count.assign(static_cast<size_t>(n), 0);
  trees.root_children.assign(static_cast<size_t>(stripes), {});

  for (int t = 0; t < stripes; ++t) {
    // Interior group t relays; everyone else is a leaf in this tree.
    std::vector<int> interior;
    std::vector<int> leaves;
    for (int r = 0; r < n; ++r) {
      (r % stripes == t ? interior : leaves).push_back(r);
    }
    // Capacity: every receiver needs a slot, and only the source plus the
    // interior group supply them.
    PANDORA_CHECK(static_cast<int64_t>(fanout) * (static_cast<int64_t>(interior.size()) + 1) >=
                  n);
    if (policy == TreePolicy::kNearOptimalDelay) {
      std::stable_sort(interior.begin(), interior.end(), [&](int a, int b) {
        return topology.links[static_cast<size_t>(a)].latency <
               topology.links[static_cast<size_t>(b)].latency;
      });
    }

    FillState fill;
    fill.trees = &trees;
    fill.t = t;
    fill.open.push_back(kOverlaySource);
    // Interiors first (they open slots as they land), then the leaves.
    for (int r : interior) {
      fill.Attach(r, /*interior=*/true);
    }
    for (int r : leaves) {
      fill.Attach(r, /*interior=*/false);
    }
  }
  return trees;
}

void StripedTrees::AddChild(int t, int p, int c) {
  if (p == kOverlaySource) {
    root_children[static_cast<size_t>(t)].push_back(c);
    return;
  }
  PANDORA_CHECK(interior_tree(p) == t, "only a tree's interior group relays in it");
  uint8_t& count = child_count[static_cast<size_t>(p)];
  PANDORA_CHECK(count < fanout, "receiver child row has no free slot");
  child_slots[static_cast<size_t>(p) * static_cast<size_t>(fanout) + count] = c;
  ++count;
}

void StripedTrees::RemoveChild(int t, int p, int c) {
  if (p == kOverlaySource) {
    std::vector<int>& list = root_children[static_cast<size_t>(t)];
    list.erase(std::find(list.begin(), list.end(), c));
    return;
  }
  uint8_t& count = child_count[static_cast<size_t>(p)];
  int* row = child_slots.data() + static_cast<size_t>(p) * static_cast<size_t>(fanout);
  count = static_cast<uint8_t>(std::remove(row, row + count, c) - row);
}

bool SpansAll(const StripedTrees& trees) {
  const int n = trees.receiver_count();
  for (int t = 0; t < trees.stripes; ++t) {
    for (int r = 0; r < n; ++r) {
      if (trees.absent(r)) {
        continue;
      }
      int hops = 0;
      int at = r;
      while (at != kOverlaySource) {
        if (at == kOverlayDetached || ++hops > n) {
          return false;
        }
        at = trees.parent[static_cast<size_t>(t)][static_cast<size_t>(at)];
      }
    }
  }
  return true;
}

bool InteriorDisjoint(const StripedTrees& trees) {
  const int n = trees.receiver_count();
  for (int t = 0; t < trees.stripes; ++t) {
    for (int r = 0; r < n; ++r) {
      const int p = trees.parent[static_cast<size_t>(t)][static_cast<size_t>(r)];
      if (p >= 0 && trees.interior_tree(p) != t) {
        return false;
      }
    }
  }
  return true;
}

bool RespectsFanout(const StripedTrees& trees) {
  // AddChild bounds receiver rows; only the source's lists can overflow.
  for (const std::vector<int>& roots : trees.root_children) {
    if (static_cast<int>(roots.size()) > trees.fanout) {
      return false;
    }
  }
  return true;
}

bool IsAcyclic(const StripedTrees& trees) {
  const int n = trees.receiver_count();
  for (int t = 0; t < trees.stripes; ++t) {
    for (int r = 0; r < n; ++r) {
      int hops = 0;
      int at = r;
      while (at != kOverlaySource && at != kOverlayDetached) {
        if (++hops > n) {
          return false;
        }
        at = trees.parent[static_cast<size_t>(t)][static_cast<size_t>(at)];
      }
    }
  }
  return true;
}

DelayStats ComputeDelayStats(const OverlayTopology& topology, const StripedTrees& trees) {
  const int n = trees.receiver_count();
  DelayStats stats;
  int64_t samples = 0;
  double sum = 0.0;
  std::vector<Duration> delay(static_cast<size_t>(n), 0);
  for (int t = 0; t < trees.stripes; ++t) {
    // Children always attach after their parent in Build, but churn can
    // reorder ids arbitrarily, so walk breadth-first from the roots.
    std::deque<int> frontier;
    for (int r : trees.root_children[static_cast<size_t>(t)]) {
      delay[static_cast<size_t>(r)] = topology.links[static_cast<size_t>(r)].latency;
      frontier.push_back(r);
    }
    while (!frontier.empty()) {
      int at = frontier.front();
      frontier.pop_front();
      const Duration d = delay[static_cast<size_t>(at)];
      sum += static_cast<double>(d);
      stats.max_us = std::max(stats.max_us, d);
      ++samples;
      for (int c : trees.children(t, at)) {
        delay[static_cast<size_t>(c)] = d + topology.links[static_cast<size_t>(c)].latency;
        frontier.push_back(c);
      }
    }
  }
  stats.mean_us = samples > 0 ? sum / static_cast<double>(samples) : 0.0;
  return stats;
}

}  // namespace pandora
