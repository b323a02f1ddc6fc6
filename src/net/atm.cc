#include "src/net/atm.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/runtime/check.h"

namespace pandora {

AtmPort::AtmPort(Scheduler* sched, AtmNetwork* net, std::string name, int64_t egress_bps,
                 size_t wire_buffers, ReportSink* report_sink, int shard)
    : sched_(sched),
      net_(net),
      name_(std::move(name)),
      fwd_name_(name_ + ".fwd"),
      tx_(sched, name_ + ".tx"),
      rx_(sched, name_ + ".rx"),
      wire_pool_(sched, name_ + ".wire", wire_buffers, report_sink),
      egress_(sched, name_ + ".egress", egress_bps),
      shard_(shard) {}

Process AtmPort::TxProc() {
  for (;;) {
    NetTx out = co_await tx_.Receive();
    // Whole-segment serialization at the interface: no interleaving, so a
    // large video segment delays any audio queued behind it (section 4.2).
    // The charge is the TRUE encoded size — exactly the bytes in the wire
    // image (stream field omitted, it rides in the VCI).
    const size_t bytes = out.wire->bytes.size();
    co_await egress_.Transmit(bytes);
    ++sent_;
    net_->ChargeWire(this, bytes);

    AtmNetwork::Circuit* circuit = net_->FindCircuit(this, out.vci);
    if (circuit == nullptr) {
      ++unrouted_;
      continue;  // circuit closed mid-flight: traffic discarded (handle dropped)
    }
    ++circuit->stats.offered;
    // "Incoming streams from the network carry the stream number allocated
    // by the destination box in their VCIs."  The wire image omits the
    // stream field, so relabelling costs nothing: the refcounted handle
    // moves into the fabric untouched, no payload copy.
    sched_->Spawn(net_->ForwardProc(this, out.vci, std::move(out.wire)), fwd_name_,
                  Priority::kHigh);
  }
}

AtmNetwork::AtmNetwork(ShardSet* shards, uint64_t seed) : shards_(shards) {
  const size_t n = static_cast<size_t>(shards->shard_count());
  rngs_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rngs_.push_back(Rng(seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(i)));
  }
  total_delivered_.assign(n, 0);
  total_lost_.assign(n, 0);
  total_corrupted_.assign(n, 0);
  bytes_on_wire_.assign(n, 0);
  trace_wire_bytes_.assign(n, 0);
  transfers_.resize(n);
  if (n > 1) {
    shards_->AddBarrierTask(this);
  }
}

AtmNetwork::~AtmNetwork() {
  if (shards_->shard_count() > 1) {
    shards_->RemoveBarrierTask(this);
  }
}

AtmPort* AtmNetwork::AddPort(const std::string& name, int64_t egress_bps, size_t wire_buffers,
                             ReportSink* report_sink, int shard) {
  PANDORA_CHECK(shard >= 0 && shard < shards_->shard_count(),
                "port placed on a shard this network does not span");
  Scheduler* sched = &shards_->shard(shard);
  ports_.push_back(
      std::make_unique<AtmPort>(sched, this, name, egress_bps, wire_buffers, report_sink, shard));
  AtmPort* port = ports_.back().get();
  sched->Spawn(port->TxProc(), name + ".txproc", Priority::kHigh);
  return port;
}

NetHop* AtmNetwork::AddHop(const std::string& name, const HopQuality& quality, int shard) {
  PANDORA_CHECK(shard >= 0 && shard < shards_->shard_count(),
                "hop placed on a shard this network does not span");
  hops_.push_back(std::make_unique<NetHop>(&shards_->shard(shard), name, quality,
                                           rngs_[static_cast<size_t>(shard)].Fork(), shard));
  return hops_.back().get();
}

void AtmNetwork::OpenCircuit(AtmPort* src, Vci vci, AtmPort* dst, std::vector<NetHop*> path,
                             const HopQuality& direct) {
  auto circuit = std::make_unique<Circuit>();
  circuit->dst = dst;
  circuit->path = std::move(path);
  circuit->direct = direct;
  circuit->generation = ++next_generation_;
  circuit->trace_name = dst->name() + ".net.vci" + std::to_string(vci);
  circuit->stage_last_exit.assign(std::max<size_t>(1, circuit->path.size()), 0);
  // Forwarding runs on the source port's shard: every bridged hop must live
  // there too (its gate belongs to that shard's scheduler).
  for (const NetHop* hop : circuit->path) {
    PANDORA_CHECK(hop->shard == src->shard_,
                  "bridged hop on a different shard than the circuit's source port");
  }
  CheckExitLatency(src, *circuit);
  circuits_[CircuitKey{src, vci}] = std::move(circuit);
}

void AtmNetwork::CheckExitLatency(AtmPort* src, const Circuit& circuit) const {
  // Cross-shard: the fabric exit posts into the destination shard's
  // mailbox, so the last stage's propagation is the lookahead floor —
  // anything smaller would ask the destination to rewrite a window it may
  // already have executed (ShardSet::Post re-checks per delivery).
  const Duration last_propagation = circuit.path.empty()
                                        ? circuit.direct.propagation
                                        : circuit.path.back()->quality.propagation;
  PANDORA_CHECK(circuit.dst->shard_ == src->shard_ || last_propagation >= shards_->lookahead(),
                "cross-shard circuit latency below the ShardSet lookahead floor");
}

void AtmNetwork::CloseCircuit(AtmPort* src, Vci vci) { circuits_.erase(CircuitKey{src, vci}); }

void AtmNetwork::SetPortUp(AtmPort* port, bool up) {
  port->up_ = up;
  if (!up) {
    // Discard deliveries already parked on the rx channel: their forwarders
    // resume and finish normally, but the segments never reach a box (the
    // dropped NetRx releases its wire buffer back to the source pool).
    // Control-plane context (between Run* calls, or stop-the-world in a
    // spanning world), so touching the port's shard state here is safe.
    while (port->rx_.TryReceive().has_value()) {
      ++total_lost_[static_cast<size_t>(port->shard_)];
    }
  }
}

void AtmNetwork::RestartPort(AtmPort* port) {
  port->sched_->Spawn(port->TxProc(), port->name_ + ".txproc", Priority::kHigh);
}

bool AtmNetwork::SetCircuitQuality(AtmPort* src, Vci vci, const HopQuality& quality) {
  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr || !circuit->path.empty()) {
    return false;  // closed, or bridged: its stages never read `direct`
  }
  // Storms may squeeze bandwidth, add jitter or loss — but never shrink a
  // cross-shard link below the lookahead floor (the fault kinds all
  // preserve propagation; a direct caller must too).
  circuit->direct = quality;
  CheckExitLatency(src, *circuit);
  return true;
}

const HopQuality* AtmNetwork::CircuitQuality(AtmPort* src, Vci vci) const {
  const Circuit* circuit = FindCircuit(src, vci);
  return circuit == nullptr || !circuit->path.empty() ? nullptr : &circuit->direct;
}

bool AtmNetwork::SetCircuitUp(AtmPort* src, Vci vci, bool up) {
  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr) {
    return false;
  }
  circuit->up = up;
  return true;
}

const CircuitStats* AtmNetwork::StatsFor(AtmPort* src, Vci vci) const {
  const Circuit* circuit = FindCircuit(src, vci);
  return circuit == nullptr ? nullptr : &circuit->stats;
}

AtmNetwork::Circuit* AtmNetwork::FindCircuit(AtmPort* src, Vci vci) const {
  auto it = circuits_.find(CircuitKey{src, vci});
  return it == circuits_.end() ? nullptr : it->second.get();
}

bool AtmNetwork::CorruptInFlight(WireRef& wire, Rng& rng, Circuit* circuit, int shard) {
  if (wire->bytes.empty()) {
    return true;  // nothing to damage
  }
  // Copy-on-corrupt: sibling handles of this buffer (multi-destination
  // fanout) must keep the pristine bytes, so the damage lands in a scratch
  // buffer from the same pool.  A starved pool drops the segment instead.
  std::optional<WireRef> scratch = wire.pool()->TryAllocate();
  if (!scratch.has_value()) {
    return false;
  }
  (*scratch)->bytes = wire->bytes;
  const int64_t bit =
      rng.UniformInt(0, static_cast<int64_t>((*scratch)->bytes.size()) * 8 - 1);
  (*scratch)->bytes[static_cast<size_t>(bit / 8)] ^=
      static_cast<uint8_t>(1u << static_cast<unsigned>(bit % 8));
  wire = std::move(*scratch);
  ++circuit->stats.corrupted;
  ++total_corrupted_[static_cast<size_t>(shard)];
  return true;
}

void AtmNetwork::ChargeWire(AtmPort* port, size_t bytes) {
  // The port's shard's slice of the wire-byte counter: single-writer, and the
  // trace site id belongs to that shard's recorder.
  const size_t shard = static_cast<size_t>(port->shard_);
  bytes_on_wire_[shard] += bytes;
  PANDORA_TRACE_COUNTER(port->sched_->trace(), trace_wire_bytes_[shard], "net.bytes_on_wire",
                        static_cast<int64_t>(bytes_on_wire_[shard]));
}

void AtmNetwork::CountLoss(AtmPort* src, Circuit* circuit, int64_t seq, size_t bytes) {
  ++circuit->stats.lost;
  ++total_lost_[static_cast<size_t>(src->shard_)];
  PANDORA_TRACE_INSTANT2(src->sched_->trace(), circuit->trace_loss, circuit->trace_name + ".loss",
                         "seq", seq, "bytes", static_cast<int64_t>(bytes));
}

bool AtmNetwork::CountExit(AtmPort* src, Circuit* circuit, Time at, Time departed, int64_t seq,
                           size_t bytes) {
  // A dead box receives nothing (PandoraBox::Crash takes the port down
  // before killing the box's processes, so nothing parks forever on an
  // unreceived rx channel).
  if (!circuit->dst->up_) {
    CountLoss(src, circuit, seq, bytes);
    return false;
  }
  ++circuit->stats.delivered;
  ++total_delivered_[static_cast<size_t>(src->shard_)];
  circuit->stats.latency.Add(static_cast<double>(at - departed));
  // Per-(stream, network-hop) transit latency, keyed by the destination VCI.
  PANDORA_TRACE_HISTOGRAM(src->sched_->trace(), circuit->trace_hist,
                          circuit->trace_name + ".latency", "us", at - departed);
  if (circuit->last_rx_time >= 0) {
    circuit->stats.inter_arrival.Add(static_cast<double>(at - circuit->last_rx_time));
  }
  circuit->last_rx_time = at;
  return true;
}

Process AtmNetwork::ForwardProc(AtmPort* src, Vci vci, WireRef wire) {
  // Everything below runs on the SOURCE port's shard: its scheduler, its
  // slice of the counters, its rng.  The destination only becomes involved
  // at the fabric exit.
  Scheduler* sched = src->sched_;
  const int shard = src->shard_;
  const Time departed = sched->now();
  const size_t bytes = wire->bytes.size();
  // One cheap header peek for telemetry — which sequence number a loss or
  // corrupt event struck.  The full decode happens only at the destination
  // box (src/server/netio.cc).
  WireHeaderPeek peek;
  const int64_t seq = PeekWireHeader(wire->bytes, StreamField::kOmitted, &peek, vci)
                          ? static_cast<int64_t>(peek.sequence)
                          : -1;

  Circuit* circuit = FindCircuit(src, vci);
  if (circuit == nullptr) {
    ++total_lost_[static_cast<size_t>(shard)];  // closed before this forwarder first ran
    co_return;
  }
  // Every re-fetch below must also land on this incarnation: a crash and
  // restart re-opens the circuit under the same key, and a segment from the
  // old call must not be delivered into (or clamp the FIFO bookkeeping of)
  // the new one.
  const uint64_t generation = circuit->generation;

  // An administratively-down circuit loses everything offered to it.
  if (!circuit->up) {
    CountLoss(src, circuit, seq, bytes);
    co_return;
  }

  // One store-and-forward stage per hop.  A direct circuit is the one-stage
  // case: its quality is the circuit's `direct`, its rng the shard's, and it
  // has no gate (the source egress already serialized the segment).
  //
  // FIFO per circuit: each stage's exit time is computed and CLAMPED
  // against the previous segment's exit BEFORE waiting, so segments that
  // draw a small jitter sample cannot overtake earlier ones — virtual
  // circuits are order-preserving, and jitter is queueing, which is FIFO.
  // ForwardProcs start in send order (spawned FIFO by the port), so each
  // stage's bookkeeping executes in send order too.
  const size_t stages = std::max<size_t>(1, circuit->path.size());
  for (size_t i = 0; i < stages; ++i) {
    NetHop* hop = circuit->path.empty() ? nullptr : circuit->path[i];
    const HopQuality* quality = hop != nullptr ? &hop->quality : &circuit->direct;
    Rng* rng = hop != nullptr ? &hop->rng : &rngs_[static_cast<size_t>(shard)];
    if (rng->Bernoulli(quality->loss_rate) ||
        (hop != nullptr && hop->gate.current_queue_delay() > quality->max_queue)) {
      CountLoss(src, circuit, seq, bytes);
      co_return;
    }
    // Bit corruption (line noise): the damaged copy still travels and is
    // delivered for the destination decoder to reject.  The rate check
    // short-circuits so healthy stages draw nothing (determinism).
    if (quality->corrupt_rate > 0 && rng->Bernoulli(quality->corrupt_rate)) {
      if (!CorruptInFlight(wire, *rng, circuit, shard)) {
        CountLoss(src, circuit, seq, bytes);
        co_return;
      }
      PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_corrupt,
                             circuit->trace_name + ".corrupt", "seq", seq, "bytes",
                             static_cast<int64_t>(bytes));
    }
    if (hop != nullptr) {
      // The gate serializes whole segments FIFO across every circuit
      // sharing the hop (contention); reservations are made in program
      // order, which per circuit is send order by induction.
      co_await hop->gate.Transmit(bytes);
      ChargeWire(src, bytes);
      circuit = FindCircuit(src, vci);
      if (circuit == nullptr || circuit->generation != generation) {
        ++total_lost_[static_cast<size_t>(shard)];  // closed (or re-opened) while in flight
        co_return;
      }
      // Re-borrow the stage from the re-fetched circuit: the bridged path is
      // immutable after OpenCircuit, so this is the same hop today, but it
      // keeps every pointer read downstream of a suspension fresh.
      hop = circuit->path[i];
      quality = &hop->quality;
      rng = &hop->rng;
    }
    const Duration jitter =
        quality->jitter_max > 0
            ? static_cast<Duration>(rng->Uniform(0.0, static_cast<double>(quality->jitter_max)))
            : 0;
    const Time exit_at = std::max(sched->now() + quality->propagation + jitter,
                                  circuit->stage_last_exit[i] + 1);
    circuit->stage_last_exit[i] = exit_at;
    if (i + 1 == stages && circuit->dst->shard_ != shard) {
      // Cross-shard fabric exit: no final wait here — the delivery time
      // rides the mailbox instead (exit_at clears the lookahead contract
      // because OpenCircuit pinned the last stage's propagation >= lookahead).
      // The exit is accounted here, on the source shard that owns the
      // circuit; the destination link state only changes at stop-the-world
      // instants (SetPortUp is control-plane), so it is stable for the whole
      // window.  A port that goes down between this post and the arrival
      // window is handled again in ArriveTransfer (that corner counts as a
      // delivery here and a discard there — documented in §14).
      if (CountExit(src, circuit, exit_at, departed, seq, bytes)) {
        DeliverCrossShard(circuit, src, vci, exit_at, std::move(wire));
      }
      co_return;
    }
    co_await sched->WaitUntil(exit_at);
    circuit = FindCircuit(src, vci);
    if (circuit == nullptr || circuit->generation != generation) {
      ++total_lost_[static_cast<size_t>(shard)];  // closed (or re-opened) while in flight
      co_return;
    }
  }

  if (!CountExit(src, circuit, sched->now(), departed, seq, bytes)) {
    co_return;
  }
  NetRx delivery;
  delivery.vci = vci;
  delivery.wire = std::move(wire);
  co_await circuit->dst->rx().Send(std::move(delivery));
}

void AtmNetwork::DeliverCrossShard(Circuit* circuit, AtmPort* src, Vci vci, Time exit_at,
                                   WireRef wire) {
  const int shard = src->shard_;
  AtmPort* dst = circuit->dst;

  // Copy the encoded bytes into a transfer record: WireRef refcounts are
  // shard-local, so the handle itself must not cross the boundary.  Records
  // recycle through the lane's free list, so a warmed lane allocates nothing.
  TransferLane& lane = transfers_[static_cast<size_t>(shard)];
  WireTransfer record;
  if (!lane.free.empty()) {
    record = std::move(lane.free.back());
    lane.free.pop_back();
  }
  record.bytes.assign(wire->bytes.begin(), wire->bytes.end());
  record.vci = vci;
  record.dst = dst;
  record.consumed = false;
  lane.live.push_back(std::move(record));
  WireTransfer* slot = &lane.live.back();
  AtmNetwork* net = this;
  shards_->Post(shard, dst->shard_, exit_at,
                TimerCallback([net, slot] { net->ArriveTransfer(slot); }));
  // `wire` releases here, on the owning shard.
}

void AtmNetwork::ArriveTransfer(WireTransfer* transfer) {
  // Destination-shard timer context, at the posted exit_at.
  AtmPort* dst = transfer->dst;
  transfer->consumed = true;  // the next barrier recycles the record
  // Re-home the bytes into the destination port's pool (the source pool's
  // refcounts must stay on the source shard).  A port that went down at a
  // stop-the-world instant while the bytes were in flight discards them, and
  // so does a starved pool (the same back-pressure answer).
  std::optional<WireRef> wire = dst->up_ ? dst->wire_pool_.TryAllocate() : std::nullopt;
  if (!wire.has_value()) {
    ++total_lost_[static_cast<size_t>(dst->shard_)];
    return;
  }
  (*wire)->bytes = transfer->bytes;
  NetRx delivery;
  delivery.vci = transfer->vci;
  delivery.wire = std::move(*wire);
  // Fast path: the box's ingress handler is already parked on rx() — hand
  // the image over without spawning a process (one dispatch per segment
  // saved).  A parked receiver implies no parked senders, so this can never
  // jump ahead of a queued delivery.
  if (dst->rx_.waiting_receivers() > 0) {
    const bool handed = dst->rx_.TrySend(std::move(delivery));
    PANDORA_DCHECK(handed, "rx TrySend failed with a parked receiver");
    return;
  }
  // rx().Send may park while the box drains; suspend in a process, exactly
  // like the tail of ForwardProc.
  dst->sched_->Spawn(DeliverProc(dst, std::move(delivery)), dst->fwd_name_, Priority::kHigh);
}

Process AtmNetwork::DeliverProc(AtmPort* dst, NetRx delivery) {
  co_await dst->rx().Send(std::move(delivery));
}

void AtmNetwork::OnShardBarrier() {
  // Coordinator context, workers parked: consumption flags written by
  // destination shards during the window are visible now.  Only the front
  // is popped — later consumed records wait for their elders so that live
  // pointers handed to mailboxes stay stable (deque guarantees).
  for (TransferLane& lane : transfers_) {
    while (!lane.live.empty() && lane.live.front().consumed) {
      lane.free.push_back(std::move(lane.live.front()));
      lane.live.pop_front();
    }
  }
}

}  // namespace pandora
