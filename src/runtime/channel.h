// Rendezvous channels, modelled on Occam/transputer channel semantics.
//
// Interprocess communication in Pandora "is by rendezvous between the sender
// and receiver of some data on a unidirectional transputer channel" (paper
// section 3.1): the hardware blocks whichever party arrives first and wakes
// it when the transfer completes.  Channel<T> reproduces this: Send parks
// the sender until a receiver takes the value (or completes instantly if a
// receiver is already parked), and vice versa.
//
// Unlike a strict Occam channel we permit multiple concurrent senders and
// receivers (queued FIFO); Pandora uses this where Occam code would use an
// array of channels plus a replicated ALT.
//
// Implementation note: no address of an awaiter subobject is ever retained
// across a suspension.  A parked sender's value moves INTO the channel's
// (heap-stable) ring before suspending, and a woken receiver claims its
// delivery from the channel by ticket.  GCC 12 materializes co_await
// operand temporaries on the stack and copies them into the coroutine frame
// around the suspension point, so pointers captured into an awaiter during
// await_suspend may not survive to await_resume; values do.
//
// The hot path is allocation-free in steady state: parked parties queue in
// RingQueues (one buffer, doubled only at high water) and deliveries fill
// recycled slots in a ticket table, where a ticket is the slot's index.
//
// Either end may also be an object with no process (DESIGN.md §10.7): a
// PassiveReceiver takes a Send inside the sender's own dispatch, and Post
// parks a value with no sender behind it, telling the channel's
// PostListener when a receiver takes it.  Receive, TryReceive and Alt
// guards see a posted value exactly as they see a parked sender's.
#ifndef PANDORA_SRC_RUNTIME_CHANNEL_H_
#define PANDORA_SRC_RUNTIME_CHANNEL_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/buffer/ring_queue.h"
#include "src/runtime/check.h"
#include "src/runtime/process.h"
#include "src/runtime/scheduler.h"
#include "src/trace/trace.h"

namespace pandora {

// Something (an Alt) that wants to learn when a channel becomes readable.
class AltWaiter {
 public:
  virtual void NotifyFromChannel() = 0;

 protected:
  ~AltWaiter() = default;
};

// Type-erased channel interface used by Alt guards.
class ChannelBase {
 public:
  virtual ~ChannelBase() = default;

  // True when a Receive would complete without blocking.
  virtual bool InputReady() const = 0;

  void RegisterAltWaiter(AltWaiter* waiter) { alt_waiters_.push_back(waiter); }
  void UnregisterAltWaiter(AltWaiter* waiter) {
    for (auto it = alt_waiters_.begin(); it != alt_waiters_.end(); ++it) {
      if (*it == waiter) {
        alt_waiters_.erase(it);
        return;
      }
    }
  }

 protected:
  void NotifyAltWaiters() {
    // Every box channel has at most one Alt listening: notify it directly.
    // Nothing iterates the live vector, so the waiter may unregister itself.
    if (alt_waiters_.size() <= 1) {
      if (!alt_waiters_.empty()) {
        alt_waiters_.front()->NotifyFromChannel();
      }
      return;
    }
    // Notify is idempotent and waiters re-check readiness, so waking all of
    // them is safe even though only one will win the data.  A notified
    // waiter may call UnregisterAltWaiter (on itself or a peer) from inside
    // NotifyFromChannel, which would invalidate iterators into the live
    // vector — so notify from a snapshot, and skip any waiter that was
    // unregistered by an earlier callback in the same round.
    notify_snapshot_ = alt_waiters_;
    for (AltWaiter* waiter : notify_snapshot_) {
      if (IsRegistered(waiter)) {
        waiter->NotifyFromChannel();
      }
    }
    notify_snapshot_.clear();
  }

 private:
  bool IsRegistered(const AltWaiter* waiter) const {
    for (const AltWaiter* registered : alt_waiters_) {
      if (registered == waiter) {
        return true;
      }
    }
    return false;
  }

  std::vector<AltWaiter*> alt_waiters_;
  // Scratch for NotifyAltWaiters; member so repeated notifies reuse capacity.
  std::vector<AltWaiter*> notify_snapshot_;
};

// A receiving end with no process of its own: a Send (or TrySend) that finds
// no receiver parked and no sender queued offers its value here first, and
// completes without suspending when Accept takes it (moving from `value`).
// Refusing leaves `value` alone and the sender parks as usual.
template <typename T>
class PassiveReceiver {
 public:
  virtual bool Accept(T& value) = 0;

 protected:
  ~PassiveReceiver() = default;
};

// Told, inside the receiver's dispatch, each time a receiver takes a value
// that was Post()ed to the channel.
class PostListener {
 public:
  virtual void OnPostTaken() = 0;

 protected:
  ~PostListener() = default;
};

template <typename T>
class Channel : public ChannelBase, public ShutdownParticipant {
 public:
  explicit Channel(Scheduler* sched, std::string name = "chan")
      : sched_(sched), name_(std::move(name)) {
    sched_->RegisterShutdownParticipant(this);
  }

  ~Channel() override { sched_->UnregisterShutdownParticipant(this); }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Scheduler::Shutdown destroys coroutine frames, but values parked here
  // (a ParkedSender's payload, an undelivered ticket in delivered_) live in
  // the channel, not the frame.  If T owns resources — a SegmentRef into a
  // BufferPool — they must be released now, while the pool still exists; the
  // channel object itself may outlive the pool (e.g. a network port's tx
  // channel vs. a device-owned pool).
  void OnSchedulerShutdown() override {
    senders_.clear();
    receivers_.clear();
    delivered_.clear();
    delivered_free_ = kNoFreeSlot;
  }

  // Kill sweep, phase 1 (before the victims' frames die): forget parked
  // receivers that belong to killed processes so nothing delivers to them,
  // and return their tickets.
  void OnProcessesKilled() override {
    receivers_.remove_if([this](const ParkedReceiver& r) {
      if (r.ctx->killed) {
        FreeTicket(r.ticket);
        return true;
      }
      return false;
    });
  }

  // Kill sweep, phase 2 (after the victims' frames died): drop the values
  // killed processes parked here — a killed sender's payload, a delivery a
  // killed receiver was woken for but never resumed to claim.
  void OnKilledFramesDestroyed() override {
    auto drop = [this](T&& value) {
      if (kill_drop_handler_) {
        kill_drop_handler_(std::move(value));
      }
    };
    senders_.remove_if([&drop](ParkedSender& s) {
      // A posted value (no ctx) belongs to no process: the sweep keeps it.
      if (s.ctx != nullptr && s.ctx->killed) {
        drop(std::move(s.value));
        return true;
      }
      return false;
    });
    for (size_t ticket = 0; ticket < delivered_.size(); ++ticket) {
      Delivery& d = delivered_[ticket];
      if (d.in_use && d.value.has_value() && d.ctx->killed) {
        drop(std::move(*d.value));
        FreeTicket(ticket);
      }
    }
  }

  // Invoked for each parked value dropped by a kill sweep.  Channels whose
  // payload carries out-of-band ownership (the pool handoff channel passes
  // raw slot indices whose refcount was already transferred to the doomed
  // receiver) use this to reclaim it; RAII payloads need no handler.
  // Cold-path state, sanctioned exception to the no-std::function rule.
  void set_kill_drop_handler(std::function<void(T&&)> handler) {
    kill_drop_handler_ = std::move(handler);
  }

  // Attaches the channel's process-free ends; either may stay null.
  void set_passive_receiver(PassiveReceiver<T>* receiver) { passive_receiver_ = receiver; }
  void set_post_listener(PostListener* listener) { post_listener_ = listener; }

  bool InputReady() const override { return !senders_.empty(); }
  size_t waiting_senders() const { return senders_.size(); }
  size_t waiting_receivers() const { return receivers_.size(); }
  const std::string& name() const { return name_; }
  uint64_t transfers() const { return transfers_; }

  struct SendAwaiter {
    Channel* channel;
    T value;

    bool await_ready() {
      if (!channel->receivers_.empty()) {
        // A receiver is already parked: rendezvous complete; the sender
        // continues without suspending.
        channel->DeliverToParked(std::move(value));
        return true;
      }
      return channel->OfferPassive(value);
    }
    void await_suspend(std::coroutine_handle<> h) {
      ProcessCtx* ctx = channel->sched_->current();
      PANDORA_DCHECK(ctx != nullptr, "channel Send awaited outside a process");
      ctx->resume_point = h;
      // The wait span's async id parks in the channel's ring alongside the
      // value (heap-stable; awaiter subobjects may relocate).
      uint64_t trace_id = 0;
      PANDORA_TRACE_RENDEZVOUS_BEGIN(channel->sched_->trace(), channel->trace_site_,
                                     channel->name_, trace_id);
      // The value parks INSIDE the channel (heap-stable), never by address
      // into this possibly-relocating awaiter.
      channel->senders_.push_back(ParkedSender{ctx, std::move(value), trace_id});
      // A parked sender makes the channel "ready" for any waiting Alt.  The
      // sender stays parked until an actual Receive takes the value, so an
      // Alt that loses the race simply re-checks and finds nothing.
      channel->NotifyAltWaiters();
    }
    void await_resume() const {}
  };

  struct RecvAwaiter {
    Channel* channel;
    // Fast path (no suspension): the value rides in the awaiter, which is
    // safe because await_ready and await_resume run on the same object when
    // no suspension intervenes.
    std::optional<T> immediate;
    uint64_t ticket = 0;

    bool await_ready() {
      if (!channel->senders_.empty()) {
        immediate.emplace(channel->TakeFront());
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ProcessCtx* ctx = channel->sched_->current();
      PANDORA_DCHECK(ctx != nullptr, "channel Receive awaited outside a process");
      ctx->resume_point = h;
      ticket = channel->AllocTicket(ctx);
      uint64_t trace_id = 0;
      PANDORA_TRACE_RENDEZVOUS_BEGIN(channel->sched_->trace(), channel->trace_site_,
                                     channel->name_, trace_id);
      channel->receivers_.push_back(ParkedReceiver{ctx, ticket, trace_id});
    }
    T await_resume() {
      if (immediate.has_value()) {
        return std::move(*immediate);
      }
      // Parked path: claim the delivery by ticket (a value, so it survives
      // any frame relocation of this awaiter).
      Delivery& d = channel->delivered_[ticket];
      PANDORA_CHECK(d.in_use && d.value.has_value());
      T value = std::move(*d.value);
      channel->FreeTicket(ticket);
      return value;
    }
  };

  // co_await channel.Send(v): rendezvous write.
  SendAwaiter Send(T value) { return SendAwaiter{this, std::move(value)}; }

  // co_await channel.Receive(): rendezvous read.
  RecvAwaiter Receive() { return RecvAwaiter{this, std::nullopt, 0}; }

  // Non-blocking send: succeeds only if a receiver is already parked or the
  // passive receiver accepts.
  bool TrySend(T value) {
    if (receivers_.empty()) {
      return OfferPassive(value);
    }
    DeliverToParked(std::move(value));
    return true;
  }

  // Parks `value` with no process behind it (a bounded buffered send: the
  // poster bounds how many it posts).  A parked receiver takes it at once;
  // otherwise it waits for a Receive like a parked sender's value would.
  void Post(T value) {
    if (!receivers_.empty()) {
      DeliverToParked(std::move(value));
      return;
    }
    senders_.push_back(ParkedSender{nullptr, std::move(value), 0});
    NotifyAltWaiters();
  }

  // Non-blocking receive: succeeds only if a sender is already parked.
  std::optional<T> TryReceive() {
    if (senders_.empty()) {
      return std::nullopt;
    }
    return TakeFront();
  }

 private:
  struct ParkedSender {
    ProcessCtx* ctx;
    T value;
    uint64_t trace_id = 0;  // open rendezvous-wait span (0 = untraced)
  };
  struct ParkedReceiver {
    ProcessCtx* ctx;
    uint64_t ticket;
    uint64_t trace_id = 0;
  };
  // One slot of the ticket table: the receiver it belongs to, and the value
  // once a sender delivered.  Slots recycle through a free list; a ticket
  // is simply the slot's index, allocated when the receiver parks.
  struct Delivery {
    ProcessCtx* ctx = nullptr;
    std::optional<T> value;
    uint32_t next_free = 0;
    bool in_use = false;
  };

  static constexpr uint32_t kNoFreeSlot = 0xffffffffu;

  // Hands `value` to the oldest parked receiver, under its ticket, and
  // wakes it.
  void DeliverToParked(T&& value) {
    ParkedReceiver receiver = receivers_.front();
    receivers_.pop_front();
    delivered_[receiver.ticket].value.emplace(std::move(value));
    ++transfers_;
    sched_->Ready(receiver.ctx);
    PANDORA_TRACE_RENDEZVOUS_END(sched_->trace(), trace_site_, receiver.trace_id);
  }

  // Send's fallback when no receiver is parked: the passive receiver, if
  // any, and only while no sender is queued ahead (FIFO).
  bool OfferPassive(T& value) {
    if (passive_receiver_ == nullptr || !senders_.empty() ||
        !passive_receiver_->Accept(value)) {
      return false;
    }
    ++transfers_;
    return true;
  }

  // Takes the oldest parked value and wakes its sender, or, for a posted
  // value, tells the listener (which may post the next one).
  T TakeFront() {
    ParkedSender& sender = senders_.front();
    T value = std::move(sender.value);
    ProcessCtx* ctx = sender.ctx;
    PANDORA_TRACE_RENDEZVOUS_END(sched_->trace(), trace_site_, sender.trace_id);
    senders_.pop_front();
    ++transfers_;
    if (ctx != nullptr) {
      sched_->Ready(ctx);
    } else if (post_listener_ != nullptr) {
      post_listener_->OnPostTaken();
    }
    return value;
  }

  uint64_t AllocTicket(ProcessCtx* ctx) {
    uint32_t index;
    if (delivered_free_ != kNoFreeSlot) {
      index = delivered_free_;
      delivered_free_ = delivered_[index].next_free;
    } else {
      index = static_cast<uint32_t>(delivered_.size());
      delivered_.emplace_back();
    }
    Delivery& d = delivered_[index];
    d.ctx = ctx;
    d.in_use = true;
    PANDORA_DCHECK(!d.value.has_value());
    return index;
  }

  void FreeTicket(uint64_t ticket) {
    Delivery& d = delivered_[ticket];
    d.ctx = nullptr;
    d.value.reset();
    d.in_use = false;
    d.next_free = delivered_free_;
    delivered_free_ = static_cast<uint32_t>(ticket);
  }

  Scheduler* sched_;
  std::string name_;
  RingQueue<ParkedSender> senders_;
  RingQueue<ParkedReceiver> receivers_;
  // Ticket table: values handed to woken-but-not-yet-resumed receivers.
  std::vector<Delivery> delivered_;
  uint32_t delivered_free_ = kNoFreeSlot;
  PassiveReceiver<T>* passive_receiver_ = nullptr;
  PostListener* post_listener_ = nullptr;
  std::function<void(T&&)> kill_drop_handler_;  // NOLINT(pandora-std-function-member): cold path
  uint64_t transfers_ = 0;
  // Cached trace site for this channel's rendezvous-wait track.
  TraceSiteId trace_site_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_CHANNEL_H_
