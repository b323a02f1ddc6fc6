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
    // This shard's slice of the wire-byte counter: single-writer, and the
    // trace site id belongs to this shard's recorder.
    net_->bytes_on_wire_[static_cast<size_t>(shard_)] += bytes;
    PANDORA_TRACE_COUNTER(sched_->trace(), net_->trace_wire_bytes_[static_cast<size_t>(shard_)],
                          "net.bytes_on_wire",
                          static_cast<int64_t>(net_->bytes_on_wire_[static_cast<size_t>(shard_)]));

    auto it = net_->circuits_.find({this, out.vci});
    if (it == net_->circuits_.end()) {
      ++unrouted_;
      continue;  // circuit closed mid-flight: traffic discarded (handle dropped)
    }
    AtmNetwork::Circuit* circuit = it->second.get();
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
  if (dst->shard_ != src->shard_) {
    // Cross-shard: the fabric exit posts into the destination shard's
    // mailbox, so the final stage's propagation is the lookahead floor —
    // anything smaller would ask the destination to rewrite a window it may
    // already have executed (ShardSet::Post re-checks per delivery).
    const Duration final_propagation =
        circuit->path.empty() ? circuit->direct.propagation : circuit->path.back()->quality.propagation;
    PANDORA_CHECK(final_propagation >= shards_->lookahead(),
                  "cross-shard circuit latency below the ShardSet lookahead floor");
  }
  circuits_[{src, vci}] = std::move(circuit);
}

void AtmNetwork::CloseCircuit(AtmPort* src, Vci vci) { circuits_.erase({src, vci}); }

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
  auto it = circuits_.find({src, vci});
  if (it == circuits_.end() || !it->second->path.empty()) {
    return false;  // closed, or bridged: ForwardProc never reads `direct` then
  }
  if (it->second->dst->shard_ != src->shard_) {
    // Storms may squeeze bandwidth, add jitter or loss — but never shrink a
    // cross-shard link below the lookahead floor (the fault kinds all
    // preserve propagation; a direct caller must too).
    PANDORA_CHECK(quality.propagation >= shards_->lookahead(),
                  "cross-shard circuit quality below the ShardSet lookahead floor");
  }
  it->second->direct = quality;
  return true;
}

const HopQuality* AtmNetwork::CircuitQuality(AtmPort* src, Vci vci) const {
  auto it = circuits_.find({src, vci});
  return it == circuits_.end() || !it->second->path.empty() ? nullptr : &it->second->direct;
}

bool AtmNetwork::SetCircuitUp(AtmPort* src, Vci vci, bool up) {
  auto it = circuits_.find({src, vci});
  if (it == circuits_.end()) {
    return false;
  }
  it->second->up = up;
  return true;
}

const CircuitStats* AtmNetwork::StatsFor(AtmPort* src, Vci vci) const {
  auto it = circuits_.find({src, vci});
  return it == circuits_.end() ? nullptr : &it->second->stats;
}

AtmNetwork::Circuit* AtmNetwork::FindCircuit(AtmPort* src, Vci vci) {
  auto it = circuits_.find({src, vci});
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
    ++circuit->stats.lost;
    ++total_lost_[static_cast<size_t>(shard)];
    PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss, circuit->trace_name + ".loss",
                           "seq", seq, "bytes", static_cast<int64_t>(bytes));
    co_return;
  }

  // FIFO per circuit: each stage's exit time is computed and CLAMPED
  // against the previous segment's exit BEFORE waiting, so segments that
  // draw a small jitter sample cannot overtake earlier ones — virtual
  // circuits are order-preserving, and jitter is queueing, which is FIFO.
  // ForwardProcs start in send order (spawned FIFO by the port), so each
  // stage's bookkeeping executes in send order too.
  if (circuit->path.empty()) {
    Rng& shard_rng = rngs_[static_cast<size_t>(shard)];
    if (shard_rng.Bernoulli(circuit->direct.loss_rate)) {
      ++circuit->stats.lost;
      ++total_lost_[static_cast<size_t>(shard)];
      PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss,
                             circuit->trace_name + ".loss", "seq", seq, "bytes",
                             static_cast<int64_t>(bytes));
      co_return;
    }
    // Bit corruption (line noise): the damaged copy still travels and is
    // delivered for the destination decoder to reject.  The rate check
    // short-circuits so healthy circuits draw nothing (determinism).
    if (circuit->direct.corrupt_rate > 0 && shard_rng.Bernoulli(circuit->direct.corrupt_rate)) {
      if (!CorruptInFlight(wire, shard_rng, circuit, shard)) {
        ++circuit->stats.lost;
        ++total_lost_[static_cast<size_t>(shard)];
        PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss,
                               circuit->trace_name + ".loss", "seq", seq, "bytes",
                               static_cast<int64_t>(bytes));
        co_return;
      }
      PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_corrupt,
                             circuit->trace_name + ".corrupt", "seq", seq, "bytes",
                             static_cast<int64_t>(bytes));
    }
    Duration jitter = circuit->direct.jitter_max > 0
                          ? static_cast<Duration>(shard_rng.Uniform(
                                0.0, static_cast<double>(circuit->direct.jitter_max)))
                          : 0;
    Time exit_at =
        std::max(sched->now() + circuit->direct.propagation + jitter,
                 circuit->stage_last_exit[0] + 1);
    circuit->stage_last_exit[0] = exit_at;
    if (circuit->dst->shard_ != shard) {
      // Cross-shard fabric exit: no final wait here — the delivery time
      // rides the mailbox instead (exit_at clears the lookahead contract
      // because OpenCircuit pinned propagation >= lookahead).
      DeliverCrossShard(circuit, src, vci, exit_at, seq, bytes, std::move(wire), departed);
      co_return;
    }
    co_await sched->WaitUntil(exit_at);
    circuit = FindCircuit(src, vci);
    if (circuit == nullptr || circuit->generation != generation) {
      ++total_lost_[static_cast<size_t>(shard)];  // closed (or re-opened) while in flight
      co_return;
    }
  } else {
    for (size_t i = 0; i < circuit->path.size(); ++i) {
      NetHop* hop = circuit->path[i];
      if (hop->rng.Bernoulli(hop->quality.loss_rate) ||
          hop->gate.current_queue_delay() > hop->quality.max_queue) {
        ++circuit->stats.lost;
        ++total_lost_[static_cast<size_t>(shard)];
        PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss,
                               circuit->trace_name + ".loss", "seq", seq, "bytes",
                               static_cast<int64_t>(bytes));
        co_return;
      }
      if (hop->quality.corrupt_rate > 0 && hop->rng.Bernoulli(hop->quality.corrupt_rate)) {
        if (!CorruptInFlight(wire, hop->rng, circuit, shard)) {
          ++circuit->stats.lost;
          ++total_lost_[static_cast<size_t>(shard)];
          PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss,
                                 circuit->trace_name + ".loss", "seq", seq, "bytes",
                                 static_cast<int64_t>(bytes));
          co_return;
        }
        PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_corrupt,
                               circuit->trace_name + ".corrupt", "seq", seq, "bytes",
                               static_cast<int64_t>(bytes));
      }
      // The gate serializes whole segments FIFO across every circuit
      // sharing the hop (contention); reservations are made in program
      // order, which per circuit is send order by induction.
      co_await hop->gate.Transmit(bytes);
      bytes_on_wire_[static_cast<size_t>(shard)] += bytes;
      PANDORA_TRACE_COUNTER(sched->trace(), trace_wire_bytes_[static_cast<size_t>(shard)],
                            "net.bytes_on_wire",
                            static_cast<int64_t>(bytes_on_wire_[static_cast<size_t>(shard)]));
      circuit = FindCircuit(src, vci);
      if (circuit == nullptr || circuit->generation != generation) {
        ++total_lost_[static_cast<size_t>(shard)];  // closed (or re-opened) while in flight
        co_return;
      }
      // Re-borrow the hop from the re-fetched circuit: the bridged path is
      // immutable after OpenCircuit, so this is the same pointer today, but
      // it keeps every pointer read downstream of a suspension fresh.
      hop = circuit->path[i];
      Duration jitter = hop->quality.jitter_max > 0
                            ? static_cast<Duration>(hop->rng.Uniform(
                                  0.0, static_cast<double>(hop->quality.jitter_max)))
                            : 0;
      Time exit_at = std::max(sched->now() + hop->quality.propagation + jitter,
                              circuit->stage_last_exit[i] + 1);
      circuit->stage_last_exit[i] = exit_at;
      if (i + 1 == circuit->path.size() && circuit->dst->shard_ != shard) {
        // Last hop of a cross-shard bridged path: the exit posts into the
        // destination shard instead of waiting here (the hop's propagation
        // is the lookahead floor, pinned at OpenCircuit).
        DeliverCrossShard(circuit, src, vci, exit_at, seq, bytes, std::move(wire), departed);
        co_return;
      }
      co_await sched->WaitUntil(exit_at);
      circuit = FindCircuit(src, vci);
      if (circuit == nullptr || circuit->generation != generation) {
        ++total_lost_[static_cast<size_t>(shard)];
        co_return;
      }
    }
  }

  // The destination link may have gone down while this segment was in
  // flight; a dead box receives nothing (PandoraBox::Crash takes the port
  // down before killing the box's processes, so nothing parks forever on an
  // unreceived rx channel).
  if (!circuit->dst->up_) {
    ++circuit->stats.lost;
    ++total_lost_[static_cast<size_t>(shard)];
    PANDORA_TRACE_INSTANT2(sched->trace(), circuit->trace_loss, circuit->trace_name + ".loss",
                           "seq", seq, "bytes", static_cast<int64_t>(bytes));
    co_return;
  }
  ++circuit->stats.delivered;
  ++total_delivered_[static_cast<size_t>(shard)];
  circuit->stats.latency.Add(static_cast<double>(sched->now() - departed));
  // Per-(stream, network-hop) transit latency, keyed by the destination VCI.
  PANDORA_TRACE_HISTOGRAM(sched->trace(), circuit->trace_hist,
                          circuit->trace_name + ".latency", "us", sched->now() - departed);
  if (circuit->last_rx_time >= 0) {
    circuit->stats.inter_arrival.Add(static_cast<double>(sched->now() - circuit->last_rx_time));
  }
  circuit->last_rx_time = sched->now();
  NetRx delivery;
  delivery.vci = vci;
  delivery.wire = std::move(wire);
  co_await circuit->dst->rx().Send(std::move(delivery));
}

void AtmNetwork::DeliverCrossShard(Circuit* circuit, AtmPort* src, Vci vci, Time exit_at,
                                   int64_t seq, size_t bytes, WireRef wire, Time departed) {
  const int shard = src->shard_;
  AtmPort* dst = circuit->dst;
  // The destination link state only changes at stop-the-world instants
  // (SetPortUp is control-plane), so this read is stable for the whole
  // window.  A port that is down NOW loses the segment at the exit, exactly
  // like the same-shard tail; a port that goes down between this post and
  // the arrival window is handled again in ArriveTransfer (that corner
  // counts as a delivery here and a discard there — documented in §14).
  if (!dst->up_) {
    ++circuit->stats.lost;
    ++total_lost_[static_cast<size_t>(shard)];
    PANDORA_TRACE_INSTANT2(src->sched_->trace(), circuit->trace_loss,
                           circuit->trace_name + ".loss", "seq", seq, "bytes",
                           static_cast<int64_t>(bytes));
    return;
  }
  // Fabric-exit accounting on the source shard, which owns the circuit: the
  // delivery instant is exit_at by construction (the posted timer fires then).
  ++circuit->stats.delivered;
  ++total_delivered_[static_cast<size_t>(shard)];
  circuit->stats.latency.Add(static_cast<double>(exit_at - departed));
  PANDORA_TRACE_HISTOGRAM(src->sched_->trace(), circuit->trace_hist,
                          circuit->trace_name + ".latency", "us", exit_at - departed);
  if (circuit->last_rx_time >= 0) {
    circuit->stats.inter_arrival.Add(static_cast<double>(exit_at - circuit->last_rx_time));
  }
  circuit->last_rx_time = exit_at;

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
  if (!dst->up_) {
    // Went down at a stop-the-world instant while the bytes were in flight.
    ++total_lost_[static_cast<size_t>(dst->shard_)];
    return;
  }
  // Re-home the bytes into the destination port's pool (the source pool's
  // refcounts must stay on the source shard).  A starved pool discards, the
  // same back-pressure answer a down port gets.
  std::optional<WireRef> wire = dst->wire_pool_.TryAllocate();
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
  // saved; the batched NetworkInput drains these in bursts).  A parked
  // receiver implies no parked senders, so this can never jump ahead of a
  // queued delivery.
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
