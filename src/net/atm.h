// ATM network simulation (sections 1.1, 4.2; DESIGN.md substitution).
//
// Pandora boxes exchange segments over a dedicated ATM network; "incoming
// streams from the network carry the stream number allocated by the
// destination box in their VCIs".  The reproduction models the properties
// the paper's mechanisms react to:
//
//  * each box's network interface serializes whole segments at its link
//    rate and does NOT interleave transmissions — "video segments can hold
//    up following audio segments, introducing up to 20ms of jitter in a
//    stream" (section 4.2, measured by bench E7);
//  * a circuit may traverse several store-and-forward hops (bridges,
//    backbone links, protocol conversions — the SuperJanet trial of
//    section 3.7.2), each with its own bandwidth, propagation delay,
//    queueing jitter, loss and bit corruption;
//  * delivery is FIFO per circuit (jitter never reorders one stream).
//
// The network carries ENCODED segments: the source box serializes once into
// a refcounted WireBuffer drawn from its port's WirePool, every stage below
// (egress gate, hops, delivery) moves the handle, and only the destination
// box decodes (DESIGN.md §9).  Per-hop byte accounting therefore uses the
// true encoded size, and damage (corrupt_rate) flips bits in the actual
// wire image for the receiver's decoder to catch.
//
// Sharding (DESIGN.md §14): when constructed over a ShardSet, every port
// lives on one shard and all forwarding for a circuit runs on the SOURCE
// port's shard (its rng, its trace recorder, its slice of the network
// counters).  A cross-shard circuit hands the encoded bytes to the
// destination shard through ShardSet::Post at the fabric-exit instant; the
// final-stage propagation delay is the lookahead floor, validated at
// OpenCircuit (and re-checked by Post itself).  The payload crosses the
// boundary as a byte copy into a capacity-recycled transfer record —
// WireRef refcounts are shard-local and never shared between threads.
#ifndef PANDORA_SRC_NET_ATM_H_
#define PANDORA_SRC_NET_ATM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/buffer/pool.h"
#include "src/runtime/channel.h"
#include "src/runtime/random.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/stats.h"
#include "src/segment/constants.h"
#include "src/segment/wire.h"
#include "src/trace/trace.h"

namespace pandora {

// Characteristics of one hop of a network path.
struct HopQuality {
  int64_t bits_per_second = 100'000'000;
  Duration propagation = Micros(20);
  Duration jitter_max = 0;  // uniform [0, jitter_max) queueing delay
  double loss_rate = 0.0;
  // Probability that a traversal flips a bit somewhere in the segment's
  // wire image (line noise, a flaky bridge).  The damaged copy is still
  // delivered; the destination's decoder rejects it (wire-corrupt fault).
  double corrupt_rate = 0.0;
  // Queue bound: a segment arriving when the hop's backlog exceeds this is
  // discarded (bridges have finite buffers; overload shows as loss, not as
  // unbounded delay).
  Duration max_queue = Millis(500);
};

// A shared store-and-forward element (backbone link, bridge).  Contention:
// simultaneous circuits queue on its gate.
class NetHop {
 public:
  NetHop(Scheduler* sched, std::string name, const HopQuality& quality, Rng rng, int shard = 0)
      : quality(quality),
        gate(sched, std::move(name), quality.bits_per_second),
        rng(rng),
        shard(shard) {}

  HopQuality quality;
  BandwidthGate gate;
  Rng rng;
  // Shard whose scheduler owns the gate; every circuit through this hop must
  // originate on the same shard (hop traversal is source-shard work).
  int shard = 0;
};

// What the box's network output handler hands to its port: an encoded
// segment (stream field omitted — the VCI carries it) ready for the wire.
struct NetTx {
  Vci vci = 0;
  WireRef wire;
};

// What the network delivers to the destination port: the same encoded
// bytes, untouched unless a corrupt_rate impairment struck in flight.
struct NetRx {
  Vci vci = 0;
  WireRef wire;
};

class AtmNetwork;

class AtmPort {
 public:
  AtmPort(Scheduler* sched, AtmNetwork* net, std::string name, int64_t egress_bps,
          size_t wire_buffers, ReportSink* report_sink, int shard = 0);

  // Box-side channels.  Transmission passes a refcounted handle to encoded
  // bytes drawn from this port's wire pool; the source box's segment buffer
  // is freed as soon as serialization completes ("copy once into memory,
  // once out", section 3.4), and nothing below this line copies payloads.
  Channel<NetTx>& tx() { return tx_; }
  Channel<NetRx>& rx() { return rx_; }

  // The pool of fixed wire buffers this port's transmit path encodes into.
  // Owned by the port (not the box) so handles held by in-flight forwarders
  // stay valid across a box crash.
  WirePool& wire_pool() { return wire_pool_; }

  // The non-interleaving interface gate (the E7 bottleneck).
  BandwidthGate& egress() { return egress_; }

  const std::string& name() const { return name_; }
  // ShardSet shard whose Scheduler runs this port's processes.
  int shard() const { return shard_; }
  uint64_t sent() const { return sent_; }
  uint64_t unrouted() const { return unrouted_; }
  // Link state (AtmNetwork::SetPortUp).  A down port receives nothing:
  // in-flight segments aimed at it are discarded on arrival.
  bool up() const { return up_; }

 private:
  friend class AtmNetwork;
  Process TxProc();

  Scheduler* sched_;
  AtmNetwork* net_;
  std::string name_;
  // Precomputed name for the per-segment forwarder spawn in TxProc: the
  // spawn happens once per delivered segment, and building "name.fwd" there
  // would put a string concatenation on the data-plane hot path.
  std::string fwd_name_;
  Channel<NetTx> tx_;
  Channel<NetRx> rx_;
  WirePool wire_pool_;
  BandwidthGate egress_;
  int shard_ = 0;
  bool up_ = true;
  uint64_t sent_ = 0;
  uint64_t unrouted_ = 0;
};

// One virtual circuit: (source port, VCI) -> destination port; the VCI is
// the stream number the destination box allocated for this stream.
struct CircuitStats {
  uint64_t offered = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  // Segments delivered with in-flight bit damage (corrupt_rate).
  uint64_t corrupted = 0;
  StatAccumulator latency;        // network transit per segment (us)
  StatAccumulator inter_arrival;  // spacing at destination (us), for jitter
};

class AtmNetwork : public ShardBarrierTask {
 public:
  // A fabric over `shards`: ports and hops may be placed on any of its
  // shards and cross-shard circuits ride the mailboxes.  Shard i forwards
  // with its own rng stream seeded from `seed` (shard 0's is `seed`
  // itself).  The network must be destroyed before the ShardSet.
  AtmNetwork(ShardSet* shards, uint64_t seed = 1);
  ~AtmNetwork() override;

  AtmPort* AddPort(const std::string& name, int64_t egress_bps = 20'000'000,
                   size_t wire_buffers = 256, ReportSink* report_sink = nullptr, int shard = 0);
  NetHop* AddHop(const std::string& name, const HopQuality& quality, int shard = 0);

  // Opens a circuit; `path` lists intermediate hops (may be empty for a
  // direct LAN connection with `direct` quality).  Every hop must live on
  // the source port's shard, and when the destination port lives on another
  // shard the final stage's propagation must cover the ShardSet lookahead —
  // the conservative-sync contract that lets the fabric exit post straight
  // into the destination shard's next window (both checked).
  void OpenCircuit(AtmPort* src, Vci vci, AtmPort* dst, std::vector<NetHop*> path = {},
                   const HopQuality& direct = HopQuality{});
  void CloseCircuit(AtmPort* src, Vci vci);

  // --- Fault hooks ---------------------------------------------------------
  // All runtime impairment goes through these mutators (and from there
  // through src/fault/'s FaultDriver); nothing else may poke circuit or hop
  // parameters mid-run (pandora-lint rule `fault-hooks`).

  // Takes a port's link down or back up.  Going down discards anything
  // already parked for delivery on the port's rx channel and everything
  // that arrives while down (counted in total_lost() and the circuit's
  // loss stats).  The box-side processes are the box's problem
  // (PandoraBox::Crash kills them); the port object itself survives.
  void SetPortUp(AtmPort* port, bool up);

  // Respawns a port's transmit process after its box restarts (the old one
  // died with the box's process group).
  void RestartPort(AtmPort* port);

  // Per-circuit impairment for circuits with no intermediate hops: replaces
  // the quality of the one stage (burst loss, jitter storm, rate change, bit
  // corruption).  Returns false if no such circuit is open, or if it is
  // bridged — its hop stages never read it, so a storm would silently not happen.
  bool SetCircuitQuality(AtmPort* src, Vci vci, const HopQuality& quality);
  // Snapshot of the current direct-path quality, for restore-after-episode.
  // Null for closed and for bridged circuits, matching SetCircuitQuality.
  const HopQuality* CircuitQuality(AtmPort* src, Vci vci) const;
  // Administrative circuit state: a down circuit loses every segment.
  bool SetCircuitUp(AtmPort* src, Vci vci, bool up);

  const CircuitStats* StatsFor(AtmPort* src, Vci vci) const;
  // Network totals are kept per shard (each slice written only by its own
  // worker) and summed here; call between Run* calls or at a barrier.
  uint64_t total_delivered() const { return SumCounter(total_delivered_); }
  uint64_t total_lost() const { return SumCounter(total_lost_); }
  // Segments delivered carrying in-flight bit damage.
  uint64_t total_corrupted() const { return SumCounter(total_corrupted_); }
  // True encoded bytes pushed through transmission stages (source egress
  // plus every store-and-forward hop traversal).
  uint64_t bytes_on_wire() const { return SumCounter(bytes_on_wire_); }

  // Barrier task: recycles cross-shard transfer records whose consumption
  // the barrier just made visible (coordinator context, workers parked).
  void OnShardBarrier() override;

 private:
  friend class AtmPort;

  struct Circuit {
    AtmPort* dst = nullptr;
    std::vector<NetHop*> path;
    HopQuality direct;
    bool up = true;
    // Incarnation stamp, unique per OpenCircuit: a crash+restart re-opens
    // a call's circuit under the SAME (src, vci) key, and a forwarder that
    // suspended inside the old incarnation must not deliver into the new
    // one (the key-based re-fetch alone would ABA onto it).
    uint64_t generation = 0;
    // Per-stage FIFO clamps (one per hop, or one for a direct path): the
    // exit time of the previous segment of THIS circuit through each stage.
    std::vector<Time> stage_last_exit;
    Time last_rx_time = -1;
    CircuitStats stats;
    // Telemetry track prefix "<dst>.net.vci<N>" (per stream, network hop).
    std::string trace_name;
    TraceSiteId trace_hist = 0;
    TraceSiteId trace_loss = 0;
    TraceSiteId trace_corrupt = 0;
  };

  // Walks one segment through the circuit's store-and-forward stages, one
  // per hop (a direct circuit is the one gate-less stage); spawned per
  // segment so transmissions overlap.  Keyed by (src, vci), not a
  // Circuit*: the circuit can be closed (box crash, hang-up) while this
  // segment is mid-flight, so the pointer is re-fetched after every
  // suspension — and its generation compared, since the key may have been
  // re-opened for a new call — with the segment counted as lost if the
  // original circuit is gone.  The wire handle is MOVED stage to stage; the
  // encoded bytes are never copied (except copy-on-corrupt below).
  Process ForwardProc(AtmPort* src, Vci vci, WireRef wire);
  Circuit* FindCircuit(AtmPort* src, Vci vci) const;
  // A cross-shard circuit's last stage must cover the ShardSet lookahead.
  void CheckExitLatency(AtmPort* src, const Circuit& circuit) const;
  // Accounting on the port's shard slice: bytes through a transmission stage,
  // a lost segment, a segment leaving the fabric at `at` (lost if the
  // destination port is down; returns whether it was delivered).
  void ChargeWire(AtmPort* port, size_t bytes);
  void CountLoss(AtmPort* src, Circuit* circuit, int64_t seq, size_t bytes);
  bool CountExit(AtmPort* src, Circuit* circuit, Time at, Time departed, int64_t seq,
                 size_t bytes);

  // Applies a corrupt_rate strike: replaces `wire` with a damaged COPY so
  // sibling handles of the same buffer (multi-destination fanout) keep the
  // pristine bytes.  Draws the bit index from `rng`.  Returns false when
  // the wire pool has no scratch buffer — the strike then drops the
  // segment instead (the caller counts it as lost).  `shard` is the source
  // port's shard, which owns the corruption counters being charged.
  bool CorruptInFlight(WireRef& wire, Rng& rng, Circuit* circuit, int shard);

  // One segment crossing a shard boundary: the encoded bytes are copied in
  // on the source shard (WireRef refcounts are shard-local), consumed on the
  // destination shard, and the record recycled — capacity intact — by the
  // coordinator once a barrier has made the consumption visible.
  struct WireTransfer {
    std::vector<uint8_t> bytes;
    Vci vci = 0;
    AtmPort* dst = nullptr;
    bool consumed = false;
  };
  // Per-source-shard transfer queue.  `live` is appended by the source
  // shard's worker during windows and popped by the coordinator at barriers;
  // `free` recycles records the opposite way.  The two sides never run
  // concurrently (barrier-separated), and deque references are stable, so
  // the destination shard's consumption writes race with nothing.
  struct TransferLane {
    std::deque<WireTransfer> live;
    std::vector<WireTransfer> free;
  };

  // Fabric-exit handoff for an accounted cross-shard exit: the bytes ride the
  // mailbox to the destination shard, arriving at `exit_at`.
  void DeliverCrossShard(Circuit* circuit, AtmPort* src, Vci vci, Time exit_at, WireRef wire);
  // Destination-shard arrival (timer context): re-homes the bytes into the
  // destination port's pool and hands them to the box.
  void ArriveTransfer(WireTransfer* transfer);
  Process DeliverProc(AtmPort* dst, NetRx delivery);

  static uint64_t SumCounter(const std::vector<uint64_t>& v) {
    uint64_t n = 0;
    for (uint64_t x : v) {
      n += x;
    }
    return n;
  }

  ShardSet* shards_;
  std::vector<Rng> rngs_;  // per-shard forwarding streams, index = shard
  std::vector<std::unique_ptr<AtmPort>> ports_;
  std::vector<std::unique_ptr<NetHop>> hops_;
  // Circuits by (source port, VCI): looked up several times per segment
  // and never iterated, so a hash index (no visit order to leak).
  struct CircuitKey {
    const AtmPort* src = nullptr;
    Vci vci = 0;
    bool operator==(const CircuitKey&) const = default;
  };
  struct CircuitKeyHash {
    size_t operator()(const CircuitKey& key) const {
      return std::hash<const AtmPort*>()(key.src) ^
             (static_cast<size_t>(key.vci) * 0x9e3779b97f4a7c15ull);
    }
  };
  std::unordered_map<CircuitKey, std::unique_ptr<Circuit>, CircuitKeyHash> circuits_;
  std::vector<TransferLane> transfers_;  // index = source shard
  uint64_t next_generation_ = 0;
  // Index = shard; single-writer during windows, summed at the control plane.
  std::vector<uint64_t> total_delivered_;
  std::vector<uint64_t> total_lost_;
  std::vector<uint64_t> total_corrupted_;
  std::vector<uint64_t> bytes_on_wire_;
  std::vector<TraceSiteId> trace_wire_bytes_;  // per-shard recorder intern ids
};

}  // namespace pandora

#endif  // PANDORA_SRC_NET_ATM_H_
