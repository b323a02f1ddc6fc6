#include "src/buffer/decoupling.h"

#include <sstream>
#include <utility>

#include "src/runtime/check.h"

namespace pandora {

DecouplingBuffer::DecouplingBuffer(Scheduler* sched, Options options, ReportSink* report_sink)
    : sched_(sched),
      options_name_(options.name),
      capacity_(options.capacity),
      use_ready_channel_(options.use_ready_channel),
      reporter_(sched, report_sink, options.name),
      input_(sched, options.name + ".in"),
      ready_(sched, options.name + ".ready"),
      output_(sched, options.name + ".out"),
      command_(sched, options.name + ".cmd"),
      dispatch_(sched, options.name + ".dispatch"),
      idle_(sched, options.name + ".idle") {
  PANDORA_CHECK(capacity_ > 0, "decoupling buffer needs at least one slot");
}

void DecouplingBuffer::Start(Priority priority) {
  PANDORA_CHECK(!started_, "DecouplingBuffer started twice");
  started_ = true;
  sched_->Spawn(CoreProc(), options_name_ + ".core", priority);
  // The sender runs at high priority: Pandora arranges "that the output
  // processes have priority" so back pressure pushes loss toward sources.
  sched_->Spawn(SenderProc(), options_name_ + ".sender", Priority::kHigh);
}

Process DecouplingBuffer::SenderProc() {
  for (;;) {
    SegmentRef item = co_await dispatch_.Receive();
    co_await output_.Send(std::move(item));
    co_await idle_.Send(true);
  }
}

bool DecouplingBuffer::SettleDeferredReady() {
  if (owe_ready_ && queue_.size() < capacity_) {
    owe_ready_ = false;
    return true;
  }
  return false;
}

void DecouplingBuffer::HandleCommand(const Command& command) {
  switch (command.verb) {
    case CommandVerb::kReportStatus: {
      std::ostringstream text;
      text << "length=" << queue_.size() << " limit=" << capacity_ << " in=" << total_in_
           << " out=" << total_out_ << " max=" << max_depth_seen_;
      reporter_.ReportNow("decoupling.status", ReportSeverity::kInfo, text.str(),
                          static_cast<int64_t>(queue_.size()));
      break;
    }
    case CommandVerb::kResizeBuffer: {
      // "It is also possible to specify a new buffer size dynamically, and
      // the buffer will adjust to this size without any loss of data."  A
      // shrink below the present depth simply pauses intake until drained;
      // a grow can settle a deferred TRUE (CoreProc sends it).
      capacity_ = static_cast<size_t>(command.arg0 > 0 ? command.arg0 : 1);
      break;
    }
    default:
      reporter_.Report("decoupling.badcmd", ReportSeverity::kWarning, "unsupported command verb");
      break;
  }
}

Process DecouplingBuffer::CoreProc() {
  for (;;) {
    Alt alt(sched_);
    alt.OnReceive(command_);  // guard 0: principle 4, commands first
    alt.OnReceive(idle_);     // guard 1: sender finished a segment
    const bool can_dispatch = !queue_.empty() && sender_idle_;
    int next_guard = 2;
    const int dispatch_guard = can_dispatch ? next_guard++ : -1;
    if (can_dispatch) {
      alt.OnSkip();
    }
    // A TryPopBatch steal frees slots without passing through the dispatch
    // branch, so the deferred TRUE owed after a FALSE reply must also be
    // sendable from here.  In unbatched operation owe_ready_ implies a full
    // queue at the top of the loop (dispatch and resize both settle the debt
    // inline), so this guard never arms and the Alt shape is unchanged.
    const bool owes_ready = use_ready_channel_ && owe_ready_ && queue_.size() < capacity_;
    const int owed_guard = owes_ready ? next_guard++ : -1;
    if (owes_ready) {
      alt.OnSkip();
    }
    const bool can_input = queue_.size() < capacity_;
    const int input_guard = can_input ? next_guard++ : -1;
    if (can_input) {
      alt.OnReceive(input_);
    }

    int chosen = co_await alt.Select();
    if (chosen == 0) {
      Command command = co_await command_.Receive();
      HandleCommand(command);
      if (command.verb == CommandVerb::kResizeBuffer && SettleDeferredReady()) {
        co_await ready_.Send(true);
      }
    } else if (chosen == 1) {
      (void)co_await idle_.Receive();
      sender_idle_ = true;
    } else if (chosen == dispatch_guard) {
      SegmentRef item = std::move(queue_.front());
      queue_.pop_front();
      ++total_out_;
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_depth_site_, options_name_ + ".depth",
                            static_cast<int64_t>(queue_.size()));
      sender_idle_ = false;
      co_await dispatch_.Send(std::move(item));  // sender is parked: instant
      if (SettleDeferredReady()) {
        co_await ready_.Send(true);
      }
    } else if (chosen == owed_guard) {
      if (SettleDeferredReady()) {
        co_await ready_.Send(true);
      }
    } else if (chosen == input_guard) {
      SegmentRef item = co_await input_.Receive();
      queue_.push_back(std::move(item));
      ++total_in_;
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_depth_site_, options_name_ + ".depth",
                            static_cast<int64_t>(queue_.size()));
      if (queue_.size() > max_depth_seen_) {
        max_depth_seen_ = queue_.size();
      }
      const bool space_left = queue_.size() < capacity_;
      if (!space_left) {
        reporter_.Report("decoupling.full", ReportSeverity::kWarning,
                         "buffer reached its size limit",
                         static_cast<int64_t>(capacity_));
      }
      if (use_ready_channel_) {
        // Fig 3.6: an immediate reply after every input, TRUE iff there are
        // more free slots; after FALSE a deferred TRUE follows when a slot
        // frees.
        if (!space_left) {
          owe_ready_ = true;
        }
        co_await ready_.Send(space_left);
      }
    }
  }
}

}  // namespace pandora
