// Alt: prioritized alternation over channel inputs and timeouts.
//
// Models the Occam 2 PRI ALT construct (paper section 3.1): a process can
// wait on several inputs at once, and "the alternatives in the clause can be
// prioritised so that important channels (such as those receiving commands)
// cannot be ignored even if other alternatives are always ready".  This is
// the mechanism behind Principle 4 (command priority): every Pandora process
// lists its command channel as the first guard.
//
// Usage:
//   Alt alt(sched);
//   alt.OnReceive(command_channel)   // guard 0 = highest priority
//      .OnReceive(data_channel)      // guard 1
//      .OnTimeoutAfter(Millis(2));   // guard 2
//   int chosen = co_await alt.Select();
//   if (chosen == 0) { Command c = co_await command_channel.Receive(); ... }
//
// Select returns the index of a ready guard; the caller then performs the
// actual Receive, which completes immediately because the peer sender stays
// parked on the channel until the data is taken.
//
// Select is a plain awaiter, not a coroutine: a select costs no frame
// (DESIGN.md §10.6).  A guard ready on entry completes it inside the
// current dispatch.  Otherwise the process parks in the Alt
// (ProcessCtx::parked_alt), and the dispatcher, not the process, handles a
// lost race: when a notified process comes up, Scheduler::DispatchOne calls
// Unpark, which rescans the guards and either resumes the process with the
// chosen index or re-parks it on the same guards and deadline.  Select
// therefore never returns without a ready guard.
#ifndef PANDORA_SRC_RUNTIME_ALT_H_
#define PANDORA_SRC_RUNTIME_ALT_H_

#include <coroutine>

#include "src/buffer/small_vec.h"
#include "src/runtime/channel.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/time.h"

namespace pandora {

class Alt : public AltWaiter {
 public:
  explicit Alt(Scheduler* sched) : sched_(sched) {}

  // An Alt lives in a coroutine frame; if that frame is destroyed while
  // parked in Select (Scheduler::KillProcesses — a crashing box), the guard
  // channels still hold a registration, the timeout timer still holds a raw
  // pointer to this object, and the process record still names it as its
  // parked Alt.  Undo all three.  Guard channels are owned by boards, not
  // frames, so they outlive the Alt here.
  ~Alt() {
    if (waiting_ctx_ != nullptr) {
      Withdraw();
      waiting_ctx_->parked_alt = nullptr;
      waiting_ctx_ = nullptr;
    }
  }

  Alt(const Alt&) = delete;
  Alt& operator=(const Alt&) = delete;

  // Guards are checked in the order added; index 0 has highest priority.
  Alt& OnReceive(ChannelBase& channel) {
    guards_.push_back(Guard{Guard::kChannel, &channel, kNever});
    return *this;
  }
  Alt& OnTimeout(Time deadline) {
    guards_.push_back(Guard{Guard::kTimeout, nullptr, deadline});
    return *this;
  }
  Alt& OnTimeoutAfter(Duration d) { return OnTimeout(sched_->now() + d); }

  // Waits until some guard is ready; returns the index of the
  // highest-priority ready guard.
  [[nodiscard]] auto Select() { return SelectAwaiter{this}; }

  // Dispatcher hook: the process parked in this Alt's Select was dispatched.
  // Withdraws the registrations and the timeout, then rescans.  Returns true
  // when a guard is ready (the process resumes and Select returns it); after
  // a lost race, re-parks on the same guards and deadline and returns false.
  bool Unpark();

  // AltWaiter:
  void NotifyFromChannel() override {
    if (notified_ || waiting_ctx_ == nullptr) {
      return;
    }
    notified_ = true;
    sched_->Ready(waiting_ctx_);
  }

 private:
  struct Guard {
    enum Kind { kChannel, kTimeout } kind;
    ChannelBase* channel;
    Time deadline;
  };

  // Index of the highest-priority ready guard, or -1.
  int ScanReady() const;
  // Parks `ctx` here: registers on every channel guard, arms the earliest
  // timeout and names this Alt as the process's parked_alt.
  void Park(ProcessCtx* ctx);
  // Undoes Park: unregisters every channel guard and cancels the timeout.
  void Withdraw();

  // State mutated across the suspension lives in the Alt object (a named
  // frame local of the selecting process), never in the awaiter: GCC 12 can
  // relocate co_await operand temporaries between suspend and resume.
  struct SelectAwaiter {
    Alt* alt;

    bool await_ready() const {
      alt->chosen_ = alt->ScanReady();
      return alt->chosen_ >= 0;
    }
    void await_suspend(std::coroutine_handle<> h) const {
      ProcessCtx* ctx = alt->sched_->current();
      ctx->resume_point = h;
      alt->Park(ctx);
    }
    int await_resume() const { return alt->chosen_; }
  };

  Scheduler* sched_;
  // Guard lists are tiny and rebuilt per select; inline storage keeps them
  // out of the heap (eight guards covers every Alt in the codebase except
  // wide switch fan-outs, which spill and pay one allocation).
  SmallVec<Guard, 8> guards_;
  ProcessCtx* waiting_ctx_ = nullptr;
  TimerHandle timeout_timer_;
  int chosen_ = -1;
  bool notified_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_ALT_H_
