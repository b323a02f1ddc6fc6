// Known-bad fixture: borrows into scheduler/pool/map-owned state held
// across a co_await.  DropLater is the exact PR 3 shape -- a Circuit*
// fetched from the network's circuit map, then dereferenced after a timed
// wait with no re-fetch; the circuit can be torn down (and its slot
// recycled) during the suspension.
#include "src/net/atm.h"

namespace pandora {

Process AtmFault::DropLater(AtmNetwork* net, Vci vci, Time when) {
  Circuit* circuit = net->FindCircuit(vci);
  if (circuit == nullptr) {
    co_return;
  }
  co_await sched_->WaitUntil(when);
  circuit->up = false;  // EXPECT-LINT: suspension-borrow
  co_return;
}

// The loop back-edge variant: the first iteration reads a fresh pointer,
// every later one reads it after the WaitUntil of the previous pass.
Process AtmFault::Meter(AtmNetwork* net, Vci vci) {
  Circuit* circuit = net->FindCircuit(vci);
  if (circuit == nullptr) {
    co_return;
  }
  for (;;) {
    ++circuit->polls;  // EXPECT-LINT: suspension-borrow
    co_await sched_->WaitUntil(sched_->now() + 1);
  }
}

// Back-to-back borrows: the second declaration starts right after the
// first one's semicolon, and is a borrow in its own right.
Process AtmFault::Stage(AtmNetwork* net, Vci vci) {
  NetHop* hop = net->FindHop(vci);
  Rng* rng = &net->rngs_[vci];
  co_await hop->gate.Transmit(64);
  rng->Bernoulli(0.5);  // EXPECT-LINT: suspension-borrow
}

// Range-for keeps iterators into an owned container live across the Send
// rendezvous; an append or repack during the wait invalidates them.
Process FaultLog::Flush(Channel<SegmentRef>* out) {
  for (const Segment& segment : log_->segments) {  // EXPECT-LINT: suspension-borrow
    co_await out->Send(Wrap(segment));
  }
}

}  // namespace pandora
