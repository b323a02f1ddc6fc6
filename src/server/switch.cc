#include "src/server/switch.h"

#include <algorithm>

#include "src/runtime/check.h"

namespace pandora {

Switch::Switch(Scheduler* sched, SwitchOptions options, CpuModel* cpu, ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      cpu_(cpu),
      reporter_(sched, report_sink, options_.name),
      input_(sched, options_.name + ".in"),
      command_(sched, options_.name + ".cmd") {}

DestinationId Switch::AddDestination(const std::string& name, Channel<SegmentRef>* input,
                                     Channel<bool>* ready) {
  auto destination = std::make_unique<Destination>(
      Destination{name, ReadySender(input, ready), AdaptiveDegrader(options_.degrade), 0, {}});
  destinations_.push_back(std::move(destination));
  return static_cast<DestinationId>(destinations_.size() - 1);
}

void Switch::Start(Priority priority) {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), options_.name, priority);
}

void Switch::OpenRoute(StreamId stream, DestinationId destination, bool incoming, bool audio,
                       Vci out_vci) {
  StreamRoute& route = table_.Open(stream, incoming, audio);
  if (out_vci != 0 &&
      std::find(route.out_vcis.begin(), route.out_vcis.end(), out_vci) == route.out_vcis.end()) {
    route.out_vcis.push_back(out_vci);
  }
  table_.AddDestination(stream, destination);
}

void Switch::CloseNetworkCopy(StreamId stream, Vci vci, DestinationId network_destination) {
  table_.RemoveVci(stream, vci);
  const StreamRoute* route = table_.Find(stream);
  if (route != nullptr && route->out_vcis.empty()) {
    CloseRoute(stream, network_destination);
  }
}

void Switch::CloseRoute(StreamId stream, DestinationId destination) {
  table_.RemoveDestination(stream, destination);
  const StreamRoute* route = table_.Find(stream);
  if (route != nullptr && route->destinations.empty()) {
    table_.Close(stream);
  }
}

void Switch::MoveRoute(StreamId stream, DestinationId from, DestinationId to) {
  table_.MoveDestination(stream, from, to);
}

void Switch::HandleCommand(const Command& command) {
  switch (command.verb) {
    case CommandVerb::kOpenRoute:
      // P6: "the tables are updated without disturbing the flows of data".
      OpenRoute(command.stream, static_cast<DestinationId>(command.arg0),
                /*incoming=*/command.arg1 != 0, /*audio=*/true);
      break;
    case CommandVerb::kCloseRoute:
      CloseRoute(command.stream, static_cast<DestinationId>(command.arg0));
      break;
    case CommandVerb::kMoveRoute:
      MoveRoute(command.stream, static_cast<DestinationId>(command.arg0),
                static_cast<DestinationId>(command.arg1));
      break;
    case CommandVerb::kReportStatus:
      reporter_.ReportNow("switch.status", ReportSeverity::kInfo,
                          "streams=" + std::to_string(table_.size()) +
                              " switched=" + std::to_string(segments_switched_) +
                              " dropped=" + std::to_string(segments_dropped_),
                          static_cast<int64_t>(segments_switched_));
      break;
    default:
      break;
  }
}

Process Switch::Run() {
  for (;;) {
    // A deferred READY=TRUE needs no guard here: destination buffers are
    // passive, so it waits on the ready channel until the Poll before the
    // next send to that destination picks it up.
    Alt alt(sched_);
    alt.OnReceive(command_);  // P4: commands pre-empt data
    alt.OnReceive(input_);
    if (co_await alt.Select() == 0) {
      Command command = co_await command_.Receive();
      HandleCommand(command);
      continue;
    }
    // Declared before the span, so the span closes first and a buffer the
    // segment still holds is released after it.
    SegmentRef ref = co_await input_.Receive();
    // One span per segment on the switch's own track; handling is strictly
    // sequential, so B/E pairs nest trivially even though the span crosses
    // suspension points.
    PANDORA_TRACE_SPAN(sched_->trace(), trace_seg_site_, options_.name + ".segment");
    if (cpu_ != nullptr) {
      co_await cpu_->Consume(options_.segment_cost);
    }
    const StreamId stream = ref->stream;
    StreamRoute* route = table_.Find(stream);
    if (route == nullptr) {
      // Unrouted stream: discarded (and reported — it usually means a race
      // with teardown or a plumbing mistake).
      reporter_.Report("switch.unrouted", ReportSeverity::kWarning,
                       "segment for unknown stream " + std::to_string(stream));
      continue;
    }
    ++route->segments;
    ++segments_switched_;

    const size_t fanout = route->destinations.size();
    for (size_t i = 0; i < fanout; ++i) {
      const DestinationId id = route->destinations[i];
      Destination* destination = destinations_[static_cast<size_t>(id)].get();
      destination->sender.Poll();  // absorb any deferred READY=TRUE
      destination->degrader.MaybeRecover(sched_->now());

      const bool last = (i == fanout - 1);
      bool drop = false;
      // The degrader consults the destination's active-stream set; refresh
      // the cached copy only when routing membership actually changed.
      if (destination->active_cache_version != table_.version()) {
        destination->active_cache = table_.ActiveTowards(id);
        destination->active_cache_version = table_.version();
      }
      if (!destination->sender.can_send()) {
        // Principle 5: never block on a congested destination — the
        // split-off copies continue; this destination recovers via
        // sequence numbers.
        drop = true;
        destination->degrader.OnBufferFull(sched_->now());
        PANDORA_TRACE_INSTANT2(sched_->trace(), trace_drop_full_site_,
                               options_.name + ".drop.backpressure", "stream",
                               static_cast<int64_t>(stream), "age",
                               static_cast<int64_t>(route->attrs.open_order));
      } else if (destination->degrader.ShouldDrop(route->attrs, destination->active_cache)) {
        // Principles 1-3: sustained overload sheds whole streams in
        // degradation order rather than shaving every stream equally.
        drop = true;
        if (route->attrs.incoming) {
          if (destination->sheds.incoming++ == 0) {
            destination->sheds.first_incoming = sched_->now();
          }
          ++sheds_incoming_;
        } else {
          if (destination->sheds.outgoing++ == 0) {
            destination->sheds.first_outgoing = sched_->now();
          }
          ++sheds_outgoing_;
        }
        // Degradation decision, split by stream kind; "age" is the route's
        // open order (P3 sheds the most recently opened first).
        if (route->attrs.audio) {
          PANDORA_TRACE_INSTANT2(sched_->trace(), trace_shed_audio_site_,
                                 options_.name + ".drop.degrade.audio", "stream",
                                 static_cast<int64_t>(stream), "age",
                                 static_cast<int64_t>(route->attrs.open_order));
        } else {
          PANDORA_TRACE_INSTANT2(sched_->trace(), trace_shed_video_site_,
                                 options_.name + ".drop.degrade.video", "stream",
                                 static_cast<int64_t>(stream), "age",
                                 static_cast<int64_t>(route->attrs.open_order));
        }
      }
      if (drop) {
        ++destination->drops;
        ++route->drops;
        ++segments_dropped_;
        destination->sender.CountDrop();
        reporter_.Report("switch.dropped." + destination->name, ReportSeverity::kWarning,
                         "discarding traffic for congested output " + destination->name,
                         static_cast<int64_t>(destination->drops));
        continue;
      }
      // The common case passes the reference on; extra destinations take
      // a duplicate (reference count increment).  Hoisted to a named
      // local: GCC 12 destroys stale bitwise snapshots of owning argument
      // temporaries inside co_await expressions that suspend.
      SegmentRef to_send = last ? std::move(ref) : ref.Dup();
      co_await destination->sender.Send(std::move(to_send));
      // Re-fetch after each suspension: destination and route point into
      // switch-owned tables, and a rendezvous wait is exactly when a
      // routing command (or, once shards run in parallel, another thread)
      // can rewrite them.
      destination = destinations_[static_cast<size_t>(id)].get();
      co_await destination->sender.ConsumeReadySignal();
      route = table_.Find(stream);
      if (route == nullptr) {
        break;  // stream closed mid-fanout; remaining copies are moot
      }
    }
  }
}

}  // namespace pandora
