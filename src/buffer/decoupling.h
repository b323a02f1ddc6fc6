// Decoupling buffers (paper section 3.7.1, figures 3.5 and 3.6).
//
// "Generic circular buffers, holding a FIFO queue of references to pandora
// segments.  In addition to an input and an output channel for segment
// references, they also respond to commands and generate reports."
//
// Two forms exist:
//  * Plain: when full the buffer stops listening on its input, blocking the
//    upstream sender — back pressure that pushes data loss towards the
//    source (output processes run at high priority).
//  * Ready-channel (fig 3.6): after EVERY accepted input the buffer replies
//    immediately on the ready channel — TRUE if more slots remain, FALSE if
//    not — and sends a deferred TRUE when a slot frees.  An upstream
//    process that got FALSE may throw data away rather than block; this is
//    how the switch protects split streams (principle 5).
//
// The buffer honours principle 4 by alting its command channel at the
// highest priority, and supports dynamic resize "without any loss of data".
#ifndef PANDORA_SRC_BUFFER_DECOUPLING_H_
#define PANDORA_SRC_BUFFER_DECOUPLING_H_

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>

#include "src/buffer/pool.h"
#include "src/buffer/ring_queue.h"
#include "src/buffer/small_vec.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/alt.h"
#include "src/runtime/channel.h"
#include "src/runtime/scheduler.h"

namespace pandora {

class DecouplingBuffer {
 public:
  struct Options {
    std::string name = "decouple";
    size_t capacity = 16;
    bool use_ready_channel = false;
  };

  DecouplingBuffer(Scheduler* sched, Options options, ReportSink* report_sink = nullptr);

  DecouplingBuffer(const DecouplingBuffer&) = delete;
  DecouplingBuffer& operator=(const DecouplingBuffer&) = delete;

  // Spawns the buffer's processes.  Call once.
  void Start(Priority priority = Priority::kLow);

  Channel<SegmentRef>& input() { return input_; }
  Channel<bool>& ready() { return ready_; }
  Channel<SegmentRef>& output() { return output_; }
  CommandChannel& commands() { return command_; }

  // Batched egress steal (DESIGN.md §15): moves up to `max` queued segments
  // into `out`, FIFO, without the per-segment dispatch/output/idle rendezvous
  // round-trips.  Only safe for the buffer's single downstream consumer, and
  // only at a point where no segment is in the internal sender's hand ahead
  // of the queue — i.e. immediately after receiving from output() (drain
  // output()'s parked sender first if the caller suspended in between).
  // CoreProc still owns the ready protocol: it notices the freed slots at
  // its next guard evaluation and sends any owed deferred TRUE.
  template <std::size_t N>
  int TryPopBatch(SmallVec<SegmentRef, N>& out, int max) {
    int popped = 0;
    while (popped < max && !queue_.empty()) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++total_out_;
      ++popped;
    }
    if (popped > 0) {
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_depth_site_, options_name_ + ".depth",
                            static_cast<int64_t>(queue_.size()));
      // Each stolen segment replaced at least one full dispatch round-trip
      // in the one-segment-per-rendezvous engine (see Scheduler::events).
      sched_->CountBatchedEvents(static_cast<uint64_t>(popped));
    }
    return popped;
  }

  // Observability (the numbers a kReportStatus command returns).
  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return queue_.size() >= capacity_; }
  size_t max_depth_seen() const { return max_depth_seen_; }
  uint64_t total_in() const { return total_in_; }
  uint64_t total_out() const { return total_out_; }
  const std::string& name() const { return options_name_; }

 private:
  Process CoreProc();
  Process SenderProc();
  void HandleCommand(const Command& command);
  // True when a FALSE reply's deferred TRUE is due (a slot is free again);
  // settles the debt, and the caller sends the TRUE on ready_.
  bool SettleDeferredReady();

  Scheduler* sched_;
  std::string options_name_;
  size_t capacity_;
  bool use_ready_channel_;
  Reporter reporter_;

  Channel<SegmentRef> input_;
  Channel<bool> ready_;
  Channel<SegmentRef> output_;
  CommandChannel command_;
  // Internal: core hands queue heads to a dedicated sender so a slow
  // consumer can never stall command processing.
  Channel<SegmentRef> dispatch_;
  Channel<bool> idle_;

  RingQueue<SegmentRef> queue_;
  bool sender_idle_ = true;
  bool owe_ready_ = false;  // we replied FALSE and owe a deferred TRUE
  bool started_ = false;

  size_t max_depth_seen_ = 0;
  uint64_t total_in_ = 0;
  uint64_t total_out_ = 0;
  TraceSiteId trace_depth_site_ = 0;  // occupancy counter track
};

// Producer-side helper for the ready-channel protocol.  Tracks the latest
// TRUE/FALSE and exposes the ready channel for inclusion in the producer's
// alternation, exactly as section 3.7.1 prescribes.
class ReadySender {
 public:
  ReadySender(Channel<SegmentRef>* input, Channel<bool>* ready) : input_(input), ready_(ready) {}

  // True when the last reply said the buffer has room.
  bool can_send() const { return can_send_; }

  // Sends one segment.  Only valid when can_send() — callers drop instead
  // of calling this otherwise.  The buffer replies at once, so every Send is
  // followed by co_await ConsumeReadySignal(), which takes that reply.
  auto Send(SegmentRef ref) {
    awaiting_reply_ = true;
    return input_->Send(std::move(ref));
  }

  // The channel to include in the producer's alternation while blocked.
  Channel<bool>& ready_channel() { return *ready_; }

  // Takes the next signal on the ready channel: the reply to a Send, or a
  // deferred TRUE after the alternation selected the ready channel.  A
  // plain awaiter over the channel's receive, so a signal costs no frame.
  auto ConsumeReadySignal() { return SignalAwaiter{this, ready_->Receive()}; }

  // Drains any deferred TRUE without blocking (for poll-style producers).
  void Poll() {
    while (auto v = ready_->TryReceive()) {
      can_send_ = *v;
    }
  }

  void CountDrop() { ++drops_; }
  uint64_t drops() const { return drops_; }
  uint64_t sent() const { return sent_; }

 private:
  struct SignalAwaiter {
    ReadySender* sender;
    Channel<bool>::RecvAwaiter recv;

    bool await_ready() { return recv.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { recv.await_suspend(h); }
    void await_resume() {
      sender->can_send_ = recv.await_resume();
      if (std::exchange(sender->awaiting_reply_, false)) {
        ++sender->sent_;
      }
    }
  };

  Channel<SegmentRef>* input_;
  Channel<bool>* ready_;
  bool can_send_ = true;
  bool awaiting_reply_ = false;  // a Send's reply has not been taken yet
  uint64_t drops_ = 0;
  uint64_t sent_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_BUFFER_DECOUPLING_H_
