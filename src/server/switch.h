// The server transputer's switch (section 3.4, figures 3.3 and 3.4).
//
// All streams through a box pass the switch.  Data is copied "once into
// memory, and once out for each output device that wants the stream";
// in between, only buffer references move.  Splitting to a second
// destination duplicates the reference (incrementing the allocator's
// count); "the common case of a process passing on a descriptor to just one
// other process does not require a change in the reference count".
//
// Every destination sits behind a ready-channel decoupling buffer placed
// "downstream of the switch so that the poor performance of one output
// device does not affect streams to other output devices" (principle 5):
// if a destination's buffer is full "the switch simply omits to send it any
// more segments... until the buffer has free slots again", records the
// drops, and periodically reports while the condition persists.
//
// Sustained pressure engages the AdaptiveDegrader, which sheds streams in
// principle-1/2/3 order.  Routing commands update the stream tables without
// disturbing the flows (principles 4 and 6).
#ifndef PANDORA_SRC_SERVER_SWITCH_H_
#define PANDORA_SRC_SERVER_SWITCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/alt.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/server/degrade.h"
#include "src/server/stream_table.h"

namespace pandora {

struct SwitchOptions {
  std::string name = "server.switch";
  // Per-segment handling cost on the server CPU (header inspect + copy).
  Duration segment_cost = Micros(20);
  AdaptiveDegrader::Options degrade;
};

class Switch {
 public:
  Switch(Scheduler* sched, SwitchOptions options, CpuModel* cpu = nullptr,
         ReportSink* report_sink = nullptr);

  // Registers an output: a (segment input, ready) channel pair speaking the
  // fig 3.6 ready protocol — usually a ready-mode DecouplingBuffer, or the
  // network splitter.  Returns the destination id for routing commands.
  DestinationId AddDestination(const std::string& name, Channel<SegmentRef>* input,
                               Channel<bool>* ready);
  DestinationId AddDestination(const std::string& name, DecouplingBuffer* buffer) {
    return AddDestination(name, &buffer->input(), &buffer->ready());
  }

  void Start(Priority priority = Priority::kLow);

  // All input device handlers send segments here.
  Channel<SegmentRef>& input() { return input_; }
  CommandChannel& commands() { return command_; }
  StreamTable& table() { return table_; }

  // Direct (host-side) route management; the command channel drives the
  // same functions from inside the simulation.
  void OpenRoute(StreamId stream, DestinationId destination, bool incoming, bool audio,
                 Vci out_vci = 0);
  void CloseRoute(StreamId stream, DestinationId destination);
  // Overlay re-parent hook: swaps one destination for another in a single
  // table mutation, so a mid-repair segment is switched to exactly one of
  // the two parents — never both, never neither (P6).
  void MoveRoute(StreamId stream, DestinationId from, DestinationId to);
  // Removes one network copy of a split stream; the network destination
  // itself is closed only when no VCIs remain (principle 6: the other
  // copies flow on undisturbed).
  void CloseNetworkCopy(StreamId stream, Vci vci, DestinationId network_destination);

  uint64_t segments_switched() const { return segments_switched_; }
  uint64_t segments_dropped() const { return segments_dropped_; }
  // Degradation sheds split by stream direction, with the sim-time of the
  // first shed in each class.  P1 says incoming streams are sacrificed
  // before outgoing ones; the ordering is only meaningful within one
  // destination's population (each destination has its own degrader), so
  // the stats are kept per destination: wherever outgoing sheds happened
  // alongside routed incoming streams, the incoming class must have begun
  // shedding no later (modulo segment arrival interleaving).
  struct ShedStats {
    uint64_t incoming = 0;
    uint64_t outgoing = 0;
    Time first_incoming = -1;  // -1: never shed
    Time first_outgoing = -1;
  };
  const ShedStats& shed_stats_for(DestinationId id) const {
    return destinations_[static_cast<size_t>(id)]->sheds;
  }
  uint64_t sheds_incoming() const { return sheds_incoming_; }
  uint64_t sheds_outgoing() const { return sheds_outgoing_; }
  uint64_t drops_for(StreamId stream) const {
    const StreamRoute* route = table_.Find(stream);
    return route == nullptr ? 0 : route->drops;
  }

 private:
  struct Destination {
    std::string name;
    ReadySender sender;
    AdaptiveDegrader degrader;
    uint64_t drops = 0;
    ShedStats sheds;
    // ActiveTowards() result, rebuilt only when the stream table's routing
    // membership changes (version mismatch), not per segment.
    std::vector<StreamAttrs> active_cache;
    uint64_t active_cache_version = 0;
  };

  // One loop: select, then switch the one received segment.  Per-segment
  // handling is inline, so a segment costs no coroutine frame (DESIGN.md
  // §10.6).
  Process Run();
  void HandleCommand(const Command& command);

  Scheduler* sched_;
  SwitchOptions options_;
  CpuModel* cpu_;
  Reporter reporter_;
  Channel<SegmentRef> input_;
  CommandChannel command_;
  StreamTable table_;
  std::vector<std::unique_ptr<Destination>> destinations_;
  uint64_t segments_switched_ = 0;
  uint64_t segments_dropped_ = 0;
  uint64_t sheds_incoming_ = 0;
  uint64_t sheds_outgoing_ = 0;
  bool started_ = false;

  // Telemetry sites: per-segment handling span plus degradation-decision
  // instants (P1-P3 sheds split by stream kind, and P5 backpressure drops).
  TraceSiteId trace_seg_site_ = 0;
  TraceSiteId trace_drop_full_site_ = 0;
  TraceSiteId trace_shed_audio_site_ = 0;
  TraceSiteId trace_shed_video_site_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_SERVER_SWITCH_H_
