// Known-bad fixture: cross-shard forwarding shapes that hold a borrowed
// Circuit* across the serialization/propagation wait and then feed the
// stale borrow into the mailbox post.  The circuit map can be rewritten
// (teardown, re-open, crash sweep) during the suspension; the post then
// captures state from a recycled slot.
#include "src/net/atm.h"

namespace pandora {

Process AtmNetwork::ForwardDirect(AtmPort* src, Vci vci, WireRef wire) {
  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr) {
    co_return;
  }
  Scheduler* sched = src->sched_;
  const Time exit_at = sched->now() + circuit->direct.propagation;
  co_await sched->WaitUntil(exit_at);
  // Stale: the wait above may have outlived the circuit.  The sanctioned
  // shape re-fetches (generation-checked) before touching it — or, for a
  // cross-shard exit, posts WITHOUT suspending at all.
  if (circuit->dst->shard_ != src->shard_) {  // EXPECT-LINT: suspension-borrow
    DeliverCrossShard(circuit, src, vci, exit_at, std::move(wire));
  }
  co_return;
}

// The bridged-path back-edge variant: hop i's borrow survives hop i-1's
// wait on every pass after the first.
Process AtmNetwork::ForwardBridged(AtmPort* src, Vci vci, WireRef wire) {
  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr) {
    co_return;
  }
  Scheduler* sched = src->sched_;
  for (size_t i = 0; i < circuit->path.size(); ++i) {
    const Time exit_at = sched->now() + circuit->path[i]->quality.propagation;  // EXPECT-LINT: suspension-borrow
    co_await sched->WaitUntil(exit_at);
  }
  co_return;
}

}  // namespace pandora
