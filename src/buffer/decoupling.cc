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
      command_(sched, options.name + ".cmd") {
  PANDORA_CHECK(capacity_ > 0, "decoupling buffer needs at least one slot");
  input_.set_passive_receiver(this);
  output_.set_post_listener(this);
}

void DecouplingBuffer::Start(Priority priority) {
  PANDORA_CHECK(!started_, "DecouplingBuffer started twice");
  started_ = true;
  sched_->Spawn(CommandProc(), options_name_ + ".commands", priority);
}

bool DecouplingBuffer::Accept(SegmentRef& ref) {
  if (queue_.size() >= capacity_) {
    return false;  // full: the producer parks on input() until a take frees a slot
  }
  Push(std::move(ref));
  Refill();
  return true;
}

void DecouplingBuffer::Push(SegmentRef ref) {
  queue_.push_back(std::move(ref));
  ++total_in_;
  PANDORA_TRACE_COUNTER(sched_->trace(), trace_depth_site_, options_name_ + ".depth",
                        static_cast<int64_t>(queue_.size()));
  if (queue_.size() > max_depth_seen_) {
    max_depth_seen_ = queue_.size();
  }
  const bool space_left = queue_.size() < capacity_;
  if (!space_left) {
    reporter_.Report("decoupling.full", ReportSeverity::kWarning, "buffer reached its size limit",
                     static_cast<int64_t>(capacity_));
  }
  if (use_ready_channel_) {
    // Fig 3.6: an immediate reply after every input, TRUE iff there are
    // more free slots (counted before the segment moves into the hand);
    // after FALSE a deferred TRUE follows when a slot frees.
    if (!space_left) {
      owe_ready_ = true;
    }
    ready_.Post(space_left);
  }
}

void DecouplingBuffer::Refill() {
  for (;;) {
    while (!output_.InputReady() && !queue_.empty()) {
      SegmentRef head = std::move(queue_.front());
      queue_.pop_front();
      ++total_out_;
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_depth_site_, options_name_ + ".depth",
                            static_cast<int64_t>(queue_.size()));
      output_.Post(std::move(head));  // to a parked consumer, or into the hand
    }
    if (owe_ready_ && queue_.size() < capacity_) {
      owe_ready_ = false;
      ready_.Post(true);
    }
    if (queue_.size() >= capacity_ || !input_.InputReady()) {
      return;
    }
    std::optional<SegmentRef> parked = input_.TryReceive();
    Push(std::move(*parked));
  }
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
      // a grow settles an owed TRUE and admits parked producers at once.
      capacity_ = static_cast<size_t>(command.arg0 > 0 ? command.arg0 : 1);
      Refill();
      break;
    }
    default:
      reporter_.Report("decoupling.badcmd", ReportSeverity::kWarning, "unsupported command verb");
      break;
  }
}

Process DecouplingBuffer::CommandProc() {
  for (;;) {
    Command command = co_await command_.Receive();
    HandleCommand(command);
  }
}

}  // namespace pandora
