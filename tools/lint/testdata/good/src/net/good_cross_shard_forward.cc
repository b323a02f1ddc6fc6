// Known-good fixture: the sanctioned cross-shard forwarding shape (the
// AtmNetwork::ForwardProc / DeliverCrossShard idiom).  One loop walks the
// circuit's stages; a direct circuit is its one gate-less stage.  Two rules
// make it safe: every borrow is re-fetched generation-checked after a wait
// (the stage's hop and rng are re-borrowed from the fresh circuit), and the
// cross-shard exit never suspends between the last fetch and the mailbox
// post — the delivery time rides the Post's `when`, not a local WaitUntil,
// and the posted callback captures only the owning network plus a slot
// whose lifetime the barrier sweep manages.
#include "src/net/atm.h"

namespace pandora {

Process AtmNetwork::ForwardProc(AtmPort* src, Vci vci, WireRef wire) {
  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr) {
    co_return;
  }
  const uint64_t generation = circuit->generation;
  Scheduler* sched = src->sched_;
  const size_t stages = std::max<size_t>(1, circuit->path.size());
  for (size_t i = 0; i < stages; ++i) {
    // Borrowed fresh on every pass: the previous stage's wait cannot leak a
    // stale pointer into this one.
    NetHop* hop = circuit->path.empty() ? nullptr : circuit->path[i];
    Rng* rng = hop != nullptr ? &hop->rng : &rngs_[static_cast<size_t>(src->shard_)];
    if (hop != nullptr) {
      co_await hop->gate.Transmit(wire->bytes.size());
      // Re-fetch after the gate, then re-borrow the stage from it.
      circuit = FindCircuit(src, vci);
      if (circuit == nullptr || circuit->generation != generation) {
        co_return;
      }
      hop = circuit->path[i];
      rng = &hop->rng;
    }
    const Duration propagation =
        hop != nullptr ? hop->quality.propagation : circuit->direct.propagation;
    const Time exit_at = sched->now() + propagation + (rng->Bernoulli(0.5) ? 1 : 0);
    if (i + 1 == stages && circuit->dst->shard_ != src->shard_) {
      // Last stage of a cross-shard circuit: no suspension between the
      // fetch above and the post, so the borrow cannot go stale.  exit_at
      // clears the lookahead contract because OpenCircuit pinned the last
      // stage's propagation >= lookahead.
      DeliverCrossShard(circuit, src, vci, exit_at, std::move(wire));
      co_return;
    }
    co_await sched->WaitUntil(exit_at);
    // Same-shard: re-fetch after the wait; teardown or re-open during the
    // flight turns the segment into a loss, never a stale dereference.
    circuit = FindCircuit(src, vci);
    if (circuit == nullptr || circuit->generation != generation) {
      co_return;
    }
  }
  circuit->last_rx_time = sched->now();
  co_return;
}

}  // namespace pandora
