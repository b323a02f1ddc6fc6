#include "src/overlay/repair.h"

#include <span>

namespace pandora {

bool TreeRepair::Detach(int r) {
  if (trees_->absent(r)) {
    return false;
  }
  const int n = trees_->receiver_count();
  if (detach_parent_.empty()) {
    detach_parent_.assign(static_cast<size_t>(trees_->stripes) * static_cast<size_t>(n),
                          kOverlayDetached);
  }
  for (int t = 0; t < trees_->stripes; ++t) {
    std::vector<int>& parent = trees_->parent[static_cast<size_t>(t)];
    const int p = parent[static_cast<size_t>(r)];
    detach_parent_[static_cast<size_t>(t) * static_cast<size_t>(n) + static_cast<size_t>(r)] = p;
    trees_->RemoveChild(t, p, r);
    parent[static_cast<size_t>(r)] = kOverlayDetached;
  }
  return true;
}

std::vector<RepairAction> TreeRepair::Repair(int r) {
  std::vector<RepairAction> actions;
  if (!trees_->absent(r)) {
    // r rejoined before the repair fired: its parent chain is live again
    // and the stale children are already flowing through it.
    return actions;
  }
  const int n = trees_->receiver_count();
  for (int t = 0; t < trees_->stripes; ++t) {
    const std::span<const int> orphans = trees_->children(t, r);
    if (orphans.empty()) {
      continue;
    }
    const int hint =
        detach_parent_[static_cast<size_t>(t) * static_cast<size_t>(n) + static_cast<size_t>(r)];
    // Detach the whole batch first: an orphan must never be picked as
    // another orphan's new parent while its own chain still runs through r.
    const std::vector<int> batch(orphans.begin(), orphans.end());
    trees_->child_count[static_cast<size_t>(r)] = 0;
    for (int c : batch) {
      const int np = FindParent(t, c, hint);
      Link(t, c, np);
      actions.push_back({t, c, np});
    }
  }
  return actions;
}

std::vector<RepairAction> TreeRepair::Join(int r) {
  std::vector<RepairAction> actions;
  if (!trees_->absent(r)) {
    return actions;
  }
  const int n = trees_->receiver_count();
  for (int t = 0; t < trees_->stripes; ++t) {
    int np = kOverlayDetached;
    for (int x = t; x < n; x += trees_->stripes) {
      if (x == r || trees_->absent(x)) {
        continue;
      }
      if (static_cast<int>(trees_->children(t, x).size()) >= trees_->fanout) {
        continue;
      }
      if (Rooted(t, x)) {
        np = x;
        break;
      }
    }
    if (np == kOverlayDetached) {
      if (static_cast<int>(trees_->root_children[static_cast<size_t>(t)].size()) >= trees_->fanout) {
        ++overflow_;
      }
      np = kOverlaySource;
    }
    Link(t, r, np);
    actions.push_back({t, r, np});
  }
  return actions;
}

bool TreeRepair::Rooted(int t, int x) const {
  const int n = trees_->receiver_count();
  int hops = 0;
  int at = x;
  while (at >= 0) {
    if (++hops > n) {
      return false;
    }
    at = trees_->parent[static_cast<size_t>(t)][static_cast<size_t>(at)];
  }
  return at == kOverlaySource;
}

bool TreeRepair::InSubtree(int t, int root, int x) const {
  const int n = trees_->receiver_count();
  int hops = 0;
  int at = x;
  while (at >= 0) {
    if (at == root) {
      return true;
    }
    if (++hops > n) {
      return false;
    }
    at = trees_->parent[static_cast<size_t>(t)][static_cast<size_t>(at)];
  }
  return false;
}

int TreeRepair::FindParent(int t, int orphan, int hint) {
  const int n = trees_->receiver_count();
  // 1. Climb the leaver's old ancestor chain: re-attaching near where the
  //    subtree hung keeps repair local and depth growth minimal.  Chain
  //    nodes are never inside the orphan's subtree (that would have been a
  //    cycle before the departure).
  int at = hint;
  int hops = 0;
  while (at >= 0 && ++hops <= n) {
    if (!trees_->absent(at) &&
        static_cast<int>(trees_->children(t, at).size()) < trees_->fanout &&
        Rooted(t, at)) {
      return at;
    }
    at = trees_->parent[static_cast<size_t>(t)][static_cast<size_t>(at)];
  }
  if (at == kOverlaySource &&
      static_cast<int>(trees_->root_children[static_cast<size_t>(t)].size()) < trees_->fanout) {
    return kOverlaySource;
  }
  // 2. Any interior-group node with a free slot — skipping the orphan's own
  //    subtree (attaching there would make a cycle) and dangling nodes.
  for (int x = t; x < n; x += trees_->stripes) {
    if (trees_->absent(x) || InSubtree(t, orphan, x) ||
        static_cast<int>(trees_->children(t, x).size()) >= trees_->fanout ||
        !Rooted(t, x)) {
      continue;
    }
    return x;
  }
  // 3. Source, overloaded if need be — degrade, don't abort.
  if (static_cast<int>(trees_->root_children[static_cast<size_t>(t)].size()) >= trees_->fanout) {
    ++overflow_;
  }
  return kOverlaySource;
}

void TreeRepair::Link(int t, int node, int p) {
  trees_->parent[static_cast<size_t>(t)][static_cast<size_t>(node)] = p;
  trees_->AddChild(t, p, node);
}

}  // namespace pandora
