// Decoupling buffers (paper section 3.7.1, figures 3.5 and 3.6).
//
// "Generic circular buffers, holding a FIFO queue of references to pandora
// segments.  In addition to an input and an output channel for segment
// references, they also respond to commands and generate reports."
//
// Two forms exist:
//  * Plain: when full the buffer stops taking input, blocking the upstream
//    sender — back pressure that pushes data loss towards the source.
//  * Ready-channel (fig 3.6): after EVERY accepted input the buffer replies
//    immediately on the ready channel — TRUE if more slots remain, FALSE if
//    not — and sends a deferred TRUE when a slot frees.  An upstream
//    process that got FALSE may throw data away rather than block; this is
//    how the switch protects split streams (principle 5).
//
// Capacity counts the queue; one more segment waits "in hand" at output(),
// where the consumer takes it.  The buffer is a passive object (DESIGN.md
// §10.7): it has no process on the data path.  input() hands an offer to it
// inside the producer's dispatch (PassiveReceiver), which queues it and
// posts the reply on ready(); the queue head is posted on output(), or
// handed straight to a consumer already parked there; and the take that
// frees a slot refills the hand and posts any owed TRUE at that instant
// (PostListener).  Commands wake a process of their own, so the buffer
// honours principle 4 even while its consumer is wedged, and a resize
// takes effect "without any loss of data".
#ifndef PANDORA_SRC_BUFFER_DECOUPLING_H_
#define PANDORA_SRC_BUFFER_DECOUPLING_H_

#include <coroutine>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/buffer/pool.h"
#include "src/buffer/ring_queue.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/channel.h"
#include "src/runtime/check.h"
#include "src/runtime/scheduler.h"

namespace pandora {

class DecouplingBuffer : private PassiveReceiver<SegmentRef>, private PostListener {
 public:
  struct Options {
    std::string name = "decouple";
    size_t capacity = 16;
    bool use_ready_channel = false;
  };

  DecouplingBuffer(Scheduler* sched, Options options, ReportSink* report_sink = nullptr);

  DecouplingBuffer(const DecouplingBuffer&) = delete;
  DecouplingBuffer& operator=(const DecouplingBuffer&) = delete;

  // Spawns the command process.  Call once.
  void Start(Priority priority = Priority::kLow);

  Channel<SegmentRef>& input() { return input_; }
  Channel<bool>& ready() { return ready_; }
  Channel<SegmentRef>& output() { return output_; }
  CommandChannel& commands() { return command_; }

  // Observability (the numbers a kReportStatus command returns).
  size_t depth() const { return queue_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return queue_.size() >= capacity_; }
  size_t max_depth_seen() const { return max_depth_seen_; }
  uint64_t total_in() const { return total_in_; }
  uint64_t total_out() const { return total_out_; }
  const std::string& name() const { return options_name_; }

 private:
  // An offer on input(), in the producer's dispatch: refused when full.
  bool Accept(SegmentRef& ref) override;
  // The consumer took the segment in hand.
  void OnPostTaken() override { Refill(); }
  Process CommandProc();
  void HandleCommand(const Command& command);
  // Queues one accepted segment and sends the fig 3.6 immediate reply.
  void Push(SegmentRef ref);
  // Puts the queue head in hand while the hand is free, settles an owed
  // TRUE once a slot is free, and admits producers that parked while full.
  void Refill();

  Scheduler* sched_;
  std::string options_name_;
  size_t capacity_;
  bool use_ready_channel_;
  Reporter reporter_;

  Channel<SegmentRef> input_;
  Channel<bool> ready_;
  Channel<SegmentRef> output_;
  CommandChannel command_;

  RingQueue<SegmentRef> queue_;
  bool owe_ready_ = false;  // we replied FALSE and owe a deferred TRUE
  bool started_ = false;

  size_t max_depth_seen_ = 0;
  uint64_t total_in_ = 0;
  uint64_t total_out_ = 0;
  TraceSiteId trace_depth_site_ = 0;  // occupancy counter track
};

// Producer-side helper for the ready-channel protocol.  Tracks the latest
// TRUE/FALSE; a deferred TRUE waits on the ready channel (a passive buffer
// posts it) until Poll or ConsumeReadySignal takes it.
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

  // Takes the next signal on the ready channel: the reply to a Send, or a
  // deferred TRUE (waiting for it if none is there yet).  A
  // plain awaiter over the channel's receive, so a signal costs no frame.
  auto ConsumeReadySignal() { return SignalAwaiter{this, ready_->Receive()}; }

  // The same protocol for a producer with no process (the network
  // splitter) in front of a passive buffer: picks up any deferred TRUE,
  // then offers `ref` and takes the immediate reply, all in the caller's
  // dispatch.  False, with `ref` discarded, when the last reply was FALSE or
  // the buffer refused the offer (a shrink left it full).
  bool TrySend(SegmentRef ref) {
    Poll();
    if (!can_send_ || !input_->TrySend(std::move(ref))) {
      return false;
    }
    const std::optional<bool> reply = ready_->TryReceive();
    PANDORA_CHECK(reply.has_value(), "TrySend needs a passive ready-mode buffer");
    can_send_ = *reply;
    ++sent_;
    return true;
  }

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
