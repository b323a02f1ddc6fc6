// Unit tests for the CSP runtime substrate: scheduler, channels, alt,
// timers, tasks and serial resources.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/alt.h"
#include "src/runtime/channel.h"
#include "src/runtime/process.h"
#include "src/runtime/random.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/stats.h"
#include "src/runtime/time.h"

namespace pandora {
namespace {

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(Millis(2), 2000);
  EXPECT_EQ(Seconds(8), 8'000'000);
  EXPECT_EQ(SecondsF(0.5), 500'000);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(20)), 20.0);
  // 64us timestamp ticks (paper fig 3.1).
  EXPECT_EQ(FromTimestampTicks(ToTimestampTicks(6400)), 6400);
  EXPECT_EQ(ToTimestampTicks(65), 1u);
}

TEST(SchedulerTest, RunsSpawnedProcessToCompletion) {
  Scheduler sched;
  int ran = 0;
  auto proc = [](int* flag) -> Process {
    *flag = 1;
    co_return;
  };
  ProcessHandle h = sched.Spawn(proc(&ran), "p");
  EXPECT_FALSE(h.done());
  sched.RunUntilQuiescent();
  EXPECT_TRUE(h.done());
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerTest, ClockAdvancesOnlyWhenIdle) {
  Scheduler sched;
  std::vector<Time> wakes;
  auto proc = [](Scheduler* s, std::vector<Time>* w) -> Process {
    co_await s->WaitFor(Millis(2));
    w->push_back(s->now());
    co_await s->WaitFor(Millis(3));
    w->push_back(s->now());
  };
  sched.Spawn(proc(&sched, &wakes), "sleeper");
  sched.RunUntilQuiescent();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], Millis(2));
  EXPECT_EQ(wakes[1], Millis(5));
}

TEST(SchedulerTest, RunUntilStopsAtLimitAndAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  auto proc = [](Scheduler* s, int* f) -> Process {
    co_await s->WaitUntil(Millis(10));
    *f = 1;
  };
  sched.Spawn(proc(&sched, &fired), "late");
  sched.RunUntil(Millis(5));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), Millis(5));
  sched.RunFor(Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), Millis(15));
}

TEST(SchedulerTest, HighPriorityRunsFirst) {
  Scheduler sched;
  std::vector<int> order;
  auto proc = [](std::vector<int>* order, int id) -> Process {
    order->push_back(id);
    co_return;
  };
  sched.Spawn(proc(&order, 1), "low1", Priority::kLow);
  sched.Spawn(proc(&order, 2), "high", Priority::kHigh);
  sched.Spawn(proc(&order, 3), "low2", Priority::kLow);
  sched.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 3);
}

TEST(SchedulerTest, ProcessExceptionPropagatesFromRun) {
  Scheduler sched;
  auto proc = []() -> Process {
    co_await std::suspend_never{};
    throw std::runtime_error("boom");
  };
  sched.Spawn(proc(), "thrower");
  EXPECT_THROW(sched.RunUntilQuiescent(), std::runtime_error);
}

TEST(SchedulerTest, TimerCancellationPreventsFiring) {
  Scheduler sched;
  int fired = 0;
  TimerHandle t = sched.AddTimer(Millis(1), [&] { fired = 1; });
  t.Cancel();
  sched.RunUntilQuiescent();
  EXPECT_EQ(fired, 0);
}

TEST(SchedulerTest, TimersFireInTimeThenFifoOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.AddTimer(Millis(2), [&] { order.push_back(2); });
  sched.AddTimer(Millis(1), [&] { order.push_back(1); });
  sched.AddTimer(Millis(2), [&] { order.push_back(3); });
  sched.RunUntilQuiescent();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
}

TEST(ChannelTest, RendezvousTransfersValue) {
  Scheduler sched;
  Channel<int> ch(&sched);
  int got = 0;
  auto sender = [](Channel<int>* c) -> Process { co_await c->Send(42); };
  auto receiver = [](Channel<int>* c, int* out) -> Process { *out = co_await c->Receive(); };
  sched.Spawn(sender(&ch), "tx");
  sched.Spawn(receiver(&ch, &got), "rx");
  sched.RunUntilQuiescent();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(ch.transfers(), 1u);
}

TEST(ChannelTest, SenderBlocksUntilReceiverArrives) {
  Scheduler sched;
  Channel<int> ch(&sched);
  Time send_done = -1;
  auto sender = [](Scheduler* s, Channel<int>* c, Time* done) -> Process {
    co_await c->Send(1);
    *done = s->now();
  };
  auto receiver = [](Scheduler* s, Channel<int>* c) -> Process {
    co_await s->WaitFor(Millis(7));
    (void)co_await c->Receive();
  };
  sched.Spawn(sender(&sched, &ch, &send_done), "tx");
  sched.Spawn(receiver(&sched, &ch), "rx");
  sched.RunUntilQuiescent();
  EXPECT_EQ(send_done, Millis(7));
}

TEST(ChannelTest, ReceiverBlocksUntilSenderArrives) {
  Scheduler sched;
  Channel<int> ch(&sched);
  Time recv_done = -1;
  auto receiver = [](Scheduler* s, Channel<int>* c, Time* done) -> Process {
    (void)co_await c->Receive();
    *done = s->now();
  };
  auto sender = [](Scheduler* s, Channel<int>* c) -> Process {
    co_await s->WaitFor(Millis(3));
    co_await c->Send(9);
  };
  sched.Spawn(receiver(&sched, &ch, &recv_done), "rx");
  sched.Spawn(sender(&sched, &ch), "tx");
  sched.RunUntilQuiescent();
  EXPECT_EQ(recv_done, Millis(3));
}

TEST(ChannelTest, ManyMessagesInOrder) {
  Scheduler sched;
  Channel<int> ch(&sched);
  std::vector<int> got;
  auto sender = [](Channel<int>* c) -> Process {
    for (int i = 0; i < 100; ++i) {
      co_await c->Send(i);
    }
  };
  auto receiver = [](Channel<int>* c, std::vector<int>* out) -> Process {
    for (int i = 0; i < 100; ++i) {
      out->push_back(co_await c->Receive());
    }
  };
  sched.Spawn(sender(&ch), "tx");
  sched.Spawn(receiver(&ch, &got), "rx");
  sched.RunUntilQuiescent();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(ChannelTest, MultipleSendersQueueFifo) {
  Scheduler sched;
  Channel<int> ch(&sched);
  std::vector<int> got;
  auto sender = [](Channel<int>* c, int id) -> Process { co_await c->Send(id); };
  auto receiver = [](Channel<int>* c, std::vector<int>* out) -> Process {
    for (int i = 0; i < 3; ++i) {
      out->push_back(co_await c->Receive());
    }
  };
  sched.Spawn(sender(&ch, 1), "tx1");
  sched.Spawn(sender(&ch, 2), "tx2");
  sched.Spawn(sender(&ch, 3), "tx3");
  sched.Spawn(receiver(&ch, &got), "rx");
  sched.RunUntilQuiescent();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
  EXPECT_EQ(got[2], 3);
}

TEST(ChannelTest, TrySendAndTryReceive) {
  Scheduler sched;
  Channel<int> ch(&sched);
  EXPECT_FALSE(ch.TrySend(5));           // no receiver parked
  EXPECT_FALSE(ch.TryReceive().has_value());  // no sender parked

  auto sender = [](Channel<int>* c) -> Process { co_await c->Send(7); };
  sched.Spawn(sender(&ch), "tx");
  sched.RunUntilQuiescent();  // sender parks
  ASSERT_EQ(ch.waiting_senders(), 1u);
  auto v = ch.TryReceive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  sched.RunUntilQuiescent();  // let the sender finish
  EXPECT_EQ(ch.waiting_senders(), 0u);
}

TEST(ChannelTest, MoveOnlyPayload) {
  Scheduler sched;
  Channel<std::unique_ptr<int>> ch(&sched);
  int got = 0;
  auto sender = [](Channel<std::unique_ptr<int>>* c) -> Process {
    co_await c->Send(std::make_unique<int>(31));
  };
  auto receiver = [](Channel<std::unique_ptr<int>>* c, int* out) -> Process {
    auto p = co_await c->Receive();
    *out = *p;
  };
  sched.Spawn(sender(&ch), "tx");
  sched.Spawn(receiver(&ch, &got), "rx");
  sched.RunUntilQuiescent();
  EXPECT_EQ(got, 31);
}

TEST(AltTest, PicksReadyChannel) {
  Scheduler sched;
  Channel<int> a(&sched, "a");
  Channel<int> b(&sched, "b");
  int chosen = -1;
  int value = 0;
  auto sender = [](Channel<int>* c) -> Process { co_await c->Send(11); };
  auto selector = [](Scheduler* s, Channel<int>* a, Channel<int>* b, int* chosen,
                     int* value) -> Process {
    Alt alt(s);
    alt.OnReceive(*a).OnReceive(*b);
    *chosen = co_await alt.Select();
    *value = co_await (*chosen == 0 ? *a : *b).Receive();
  };
  sched.Spawn(sender(&b), "tx");
  sched.Spawn(selector(&sched, &a, &b, &chosen, &value), "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 1);
  EXPECT_EQ(value, 11);
}

TEST(AltTest, PriorityOrderWhenBothReady) {
  Scheduler sched;
  Channel<int> a(&sched, "a");
  Channel<int> b(&sched, "b");
  int chosen = -1;
  auto sender = [](Channel<int>* c, int v) -> Process { co_await c->Send(v); };
  auto selector = [](Scheduler* s, Channel<int>* a, Channel<int>* b, int* chosen) -> Process {
    // Let both senders park first.
    co_await s->WaitFor(Millis(1));
    Alt alt(s);
    alt.OnReceive(*a).OnReceive(*b);
    *chosen = co_await alt.Select();
    (void)co_await (*chosen == 0 ? *a : *b).Receive();
    // Drain the other so the test ends quiescent with no parked sender.
    (void)co_await (*chosen == 0 ? *b : *a).Receive();
  };
  sched.Spawn(sender(&b, 2), "txb");
  sched.Spawn(sender(&a, 1), "txa");
  sched.Spawn(selector(&sched, &a, &b, &chosen), "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 0);  // guard 0 (channel a) wins even though b sent first
}

TEST(AltTest, TimeoutFiresWhenNoSender) {
  Scheduler sched;
  Channel<int> a(&sched, "a");
  int chosen = -1;
  Time when = -1;
  auto selector = [](Scheduler* s, Channel<int>* a, int* chosen, Time* when) -> Process {
    Alt alt(s);
    alt.OnReceive(*a).OnTimeoutAfter(Millis(4));
    *chosen = co_await alt.Select();
    *when = s->now();
  };
  sched.Spawn(selector(&sched, &a, &chosen, &when), "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 1);
  EXPECT_EQ(when, Millis(4));
}

TEST(AltTest, ChannelBeatsLaterTimeout) {
  Scheduler sched;
  Channel<int> a(&sched, "a");
  int chosen = -1;
  auto sender = [](Scheduler* s, Channel<int>* c) -> Process {
    co_await s->WaitFor(Millis(1));
    co_await c->Send(1);
  };
  auto selector = [](Scheduler* s, Channel<int>* a, int* chosen) -> Process {
    Alt alt(s);
    alt.OnReceive(*a).OnTimeoutAfter(Millis(10));
    *chosen = co_await alt.Select();
    if (*chosen == 0) {
      (void)co_await a->Receive();
    }
  };
  sched.Spawn(sender(&sched, &a), "tx");
  sched.Spawn(selector(&sched, &a, &chosen), "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 0);
  EXPECT_EQ(sched.now(), Millis(1));
}

TEST(AltTest, LostRaceReparksAndEventuallyWins) {
  // Two consumers compete for one channel: a plain receiver and an alt.
  // Whoever loses must not deadlock or mis-fire.
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  std::vector<int> alt_got;
  auto plain_rx = [](Channel<int>* c) -> Process { (void)co_await c->Receive(); };
  auto alt_rx = [](Scheduler* s, Channel<int>* c, std::vector<int>* got) -> Process {
    Alt alt(s);
    alt.OnReceive(*c);
    (void)co_await alt.Select();
    got->push_back(co_await c->Receive());
  };
  auto sender = [](Scheduler* s, Channel<int>* c) -> Process {
    co_await c->Send(1);
    co_await s->WaitFor(Millis(1));
    co_await c->Send(2);
  };
  sched.Spawn(alt_rx(&sched, &ch, &alt_got), "altrx");
  sched.Spawn(plain_rx(&ch), "plainrx");
  sched.Spawn(sender(&sched, &ch), "tx");
  sched.RunUntilQuiescent();
  ASSERT_EQ(alt_got.size(), 1u);
  // The alt was notified for message 1 but the parked plain receiver might
  // win it; either way the alt ends up with exactly one of the messages.
  EXPECT_TRUE(alt_got[0] == 1 || alt_got[0] == 2);
}

TEST(AltTest, CommandPriorityNotStarvedByDataFirehose) {
  // Principle 4: a command channel listed first in the alt must get through
  // even when the data guard is always ready.
  Scheduler sched;
  Channel<int> commands(&sched, "cmd");
  Channel<int> data(&sched, "data");
  int commands_seen = 0;
  int data_seen = 0;
  bool stop = false;

  auto worker = [](Scheduler* s, Channel<int>* cmd, Channel<int>* data, int* cseen, int* dseen,
                   bool* stop) -> Process {
    while (!*stop) {
      Alt alt(s);
      alt.OnReceive(*cmd).OnReceive(*data);
      int g = co_await alt.Select();
      if (g == 0) {
        (void)co_await cmd->Receive();
        ++*cseen;
        *stop = true;
      } else {
        (void)co_await data->Receive();
        ++*dseen;
      }
    }
  };
  auto firehose = [](Scheduler* s, Channel<int>* data, bool* stop) -> Process {
    while (!*stop) {
      co_await data->Send(0);
      co_await s->WaitFor(Micros(10));  // producing a segment takes time
    }
  };
  auto commander = [](Scheduler* s, Channel<int>* cmd) -> Process {
    co_await s->WaitFor(Millis(1));
    co_await cmd->Send(99);
  };
  sched.Spawn(worker(&sched, &commands, &data, &commands_seen, &data_seen, &stop), "worker");
  sched.Spawn(firehose(&sched, &data, &stop), "firehose");
  sched.Spawn(commander(&sched, &commands), "commander");
  sched.RunUntil(Millis(5));
  EXPECT_EQ(commands_seen, 1);
  EXPECT_GT(data_seen, 0);
}

TEST(AltTest, ContendedLoserReparksAndTimesOutAtOriginalDeadline) {
  // Two Alts with timeout guards wait on one channel; one sender wakes both.
  // The first registered wins the value.  The loser pays exactly one extra
  // dispatch for the lost race, stays inside Select, and later times out at
  // the deadline it was given, not one re-derived at the lost race.
  struct Outcome {
    int chosen = -1;
    Time returned_at = -1;
    uint64_t resumptions_at_return = 0;
  };
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  Outcome winner;
  Outcome loser;
  auto selector = [](Scheduler* s, Channel<int>* c, Duration timeout, Outcome* out) -> Process {
    Alt alt(s);
    alt.OnReceive(*c).OnTimeoutAfter(timeout);
    out->chosen = co_await alt.Select();
    out->returned_at = s->now();
    out->resumptions_at_return = s->current()->resumptions;
    if (out->chosen == 0) {
      (void)co_await c->Receive();
    }
  };
  auto sender = [](Scheduler* s, Channel<int>* c) -> Process {
    co_await s->WaitFor(Millis(1));
    co_await c->Send(7);
  };
  sched.Spawn(selector(&sched, &ch, Millis(10), &winner), "winner");
  ProcessHandle loser_handle = sched.Spawn(selector(&sched, &ch, Millis(4), &loser), "loser");
  sched.Spawn(sender(&sched, &ch), "tx");

  sched.RunUntil(Millis(2));
  EXPECT_EQ(winner.chosen, 0);
  EXPECT_EQ(winner.returned_at, Millis(1));
  EXPECT_EQ(winner.resumptions_at_return, 2u);  // first run + the notify
  // The loser was woken by the same Send, found the channel empty and
  // re-parked: one extra dispatch, no return from Select.
  EXPECT_EQ(loser.chosen, -1);
  EXPECT_EQ(loser_handle.resumptions(), 2u);
  EXPECT_EQ(sched.pending_timer_count(), 1u);  // only the loser's re-armed timeout

  sched.RunUntilQuiescent();
  EXPECT_EQ(loser.chosen, 1);
  EXPECT_EQ(loser.returned_at, Millis(4));
  // An uncontended timeout costs two dispatches; the lost race added one.
  EXPECT_EQ(loser.resumptions_at_return, 3u);
  EXPECT_EQ(sched.pending_timer_count(), 0u);
}

TEST(AltTest, KilledWhileParkedInSelectLeavesNoRegistration) {
  // A crashing box destroys a process parked in Select.  Its guard channel
  // must forget the Alt (a later Send wakes nobody), its timeout must leave
  // the wheel, and its slab slot must recycle clean.
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  size_t timers_before_select = 1000;
  auto victim = [](Scheduler* s, Channel<int>* c, size_t* timers_before) -> Process {
    *timers_before = s->pending_timer_count();
    Alt alt(s);
    alt.OnReceive(*c).OnTimeoutAfter(Millis(50));
    (void)co_await alt.Select();
    ADD_FAILURE() << "a killed process returned from Select";
  };
  sched.Spawn(victim(&sched, &ch, &timers_before_select), "victim");
  sched.RunFor(Millis(1));
  EXPECT_EQ(timers_before_select, 0u);
  ASSERT_EQ(sched.pending_timer_count(), 1u);

  const ProcessCtx* victim_ctx = nullptr;
  bool parked_at_kill = false;
  EXPECT_EQ(sched.KillProcesses([&](const ProcessCtx& ctx) {
              if (ctx.name != "victim") {
                return false;
              }
              victim_ctx = &ctx;
              parked_at_kill = ctx.parked_alt != nullptr;
              return true;
            }),
            1u);
  ASSERT_NE(victim_ctx, nullptr);
  EXPECT_TRUE(parked_at_kill);
  EXPECT_EQ(sched.pending_timer_count(), timers_before_select);
  EXPECT_EQ(sched.tracked_process_count(), 0u);  // no wakeup timer pins the slot
  EXPECT_FALSE(victim_ctx->in_use);
  EXPECT_EQ(victim_ctx->parked_alt, nullptr);

  // The next spawn takes the recycled slot.  Its Send parks (no receiver)
  // and notifies nobody: the only dispatch is the sender's own.
  const ProcessCtx* sender_ctx = nullptr;
  auto sender = [](Scheduler* s, Channel<int>* c, const ProcessCtx** self) -> Process {
    *self = s->current();
    co_await c->Send(1);
  };
  const uint64_t switches_before = sched.context_switches();
  sched.Spawn(sender(&sched, &ch, &sender_ctx), "tx");
  sched.RunFor(Millis(100));
  EXPECT_EQ(sender_ctx, victim_ctx);
  EXPECT_EQ(sched.context_switches(), switches_before + 1);
  EXPECT_EQ(ch.waiting_senders(), 1u);
  EXPECT_EQ(ch.TryReceive().value_or(-1), 1);
  sched.RunUntilQuiescent();
}

TEST(AltTest, ReadyOnEntryCompletesWithoutSuspending) {
  // A guard that is already ready completes Select inside the current
  // dispatch: no context switch, no extra resumption.
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  int chosen = -1;
  uint64_t switches_across_select = 1000;
  uint64_t resumptions_across_select = 1000;
  auto sender = [](Channel<int>* c) -> Process { co_await c->Send(5); };
  auto selector = [](Scheduler* s, Channel<int>* c, int* chosen, uint64_t* switches,
                     uint64_t* resumptions) -> Process {
    const uint64_t switches_before = s->context_switches();
    const uint64_t resumptions_before = s->current()->resumptions;
    Alt alt(s);
    alt.OnReceive(*c).OnTimeoutAfter(Millis(1));
    *chosen = co_await alt.Select();
    *switches = s->context_switches() - switches_before;
    *resumptions = s->current()->resumptions - resumptions_before;
    (void)co_await c->Receive();
  };
  sched.Spawn(sender(&ch), "tx");  // parks first, so the guard is ready on entry
  sched.Spawn(selector(&sched, &ch, &chosen, &switches_across_select,
                       &resumptions_across_select),
              "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 0);
  EXPECT_EQ(switches_across_select, 0u);
  EXPECT_EQ(resumptions_across_select, 0u);
  EXPECT_EQ(sched.pending_timer_count(), 0u);  // nothing was armed
}

// A waiter that, when notified, unregisters an arbitrary set of waiters
// (itself included) from the channel — the reentrancy pattern that would
// invalidate iterators if NotifyAltWaiters walked its live vector.
class UnregisteringWaiter : public AltWaiter {
 public:
  explicit UnregisteringWaiter(ChannelBase* channel) : channel_(channel) {}

  void AlsoUnregister(AltWaiter* other) { victims_.push_back(other); }

  void NotifyFromChannel() override {
    ++notifications;
    channel_->UnregisterAltWaiter(this);
    for (AltWaiter* victim : victims_) {
      channel_->UnregisterAltWaiter(victim);
    }
  }

  int notifications = 0;

 private:
  ChannelBase* channel_;
  std::vector<AltWaiter*> victims_;
};

TEST(ChannelAltWaiterTest, UnregisterDuringNotifyDoesNotInvalidateIteration) {
  // Regression test: a notified waiter unregisters itself AND the next
  // waiter in line mid-notification.  The channel must neither skip-crash on
  // invalidated iterators nor notify the waiter that was just removed.
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  UnregisteringWaiter first(&ch);
  UnregisteringWaiter second(&ch);
  UnregisteringWaiter third(&ch);
  first.AlsoUnregister(&second);
  ch.RegisterAltWaiter(&first);
  ch.RegisterAltWaiter(&second);
  ch.RegisterAltWaiter(&third);

  auto sender = [](Channel<int>* c) -> Process { co_await c->Send(7); };
  sched.Spawn(sender(&ch), "tx");
  sched.RunUntilQuiescent();

  EXPECT_EQ(first.notifications, 1);
  // `second` was unregistered by `first` before its turn: never notified.
  EXPECT_EQ(second.notifications, 0);
  EXPECT_EQ(third.notifications, 1);

  // Every waiter (third included) unregistered itself during round one, so
  // the list is empty; a fresh registration must still work and a second
  // notification round must reach only it.
  third.notifications = 0;
  ch.RegisterAltWaiter(&third);
  std::optional<int> got = ch.TryReceive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
  auto sender2 = [](Channel<int>* c) -> Process { co_await c->Send(8); };
  sched.Spawn(sender2(&ch), "tx2");
  sched.RunUntilQuiescent();
  EXPECT_EQ(first.notifications, 1);
  EXPECT_EQ(second.notifications, 0);
  EXPECT_EQ(third.notifications, 1);
  ch.UnregisterAltWaiter(&third);
  EXPECT_TRUE(ch.TryReceive().has_value());
}

TEST(ResourceTest, SerialResourceQueuesFifo) {
  Scheduler sched;
  SerialResource res(&sched, "cpu");
  std::vector<Time> done;
  auto user = [](SerialResource* r, std::vector<Time>* done, Duration cost) -> Process {
    co_await r->Acquire(cost);
    done->push_back(r->scheduler()->now());
  };
  sched.Spawn(user(&res, &done, Micros(100)), "u1");
  sched.Spawn(user(&res, &done, Micros(50)), "u2");
  sched.RunUntilQuiescent();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Micros(100));
  EXPECT_EQ(done[1], Micros(150));
  EXPECT_EQ(res.busy_time(), Micros(150));
}

TEST(ResourceTest, UtilizationTracksBusyFraction) {
  Scheduler sched;
  SerialResource res(&sched, "cpu");
  auto user = [](Scheduler* s, SerialResource* r) -> Process {
    co_await r->Acquire(Millis(2));
    co_await s->WaitUntil(Millis(10));
  };
  sched.Spawn(user(&sched, &res), "u");
  sched.RunUntilQuiescent();
  EXPECT_DOUBLE_EQ(res.Utilization(), 0.2);
}

TEST(ResourceTest, BandwidthGateTransmissionTime) {
  Scheduler sched;
  BandwidthGate link(&sched, "link", 20'000'000);  // 20 Mbit/s server link
  // 1000 bytes = 8000 bits at 20 Mbit/s = 400us.
  EXPECT_EQ(link.TransmissionTime(1000), Micros(400));
  // An 8kHz 2-block audio segment (32 data bytes + 36 header) = 68 bytes:
  // 544 bits -> 27.2us -> ceil 28us.
  EXPECT_EQ(link.TransmissionTime(68), Micros(28));
}

TEST(ResourceTest, NonInterleavedTransmissionDelaysFollower) {
  // A big video segment on the link delays a small audio segment queued
  // behind it -- the E7 phenomenon in miniature.
  Scheduler sched;
  BandwidthGate link(&sched, "net", 20'000'000);
  Time audio_done = -1;
  auto video = [](BandwidthGate* l) -> Process {
    co_await l->Transmit(50'000);  // 20ms at 20Mbit/s
  };
  auto audio = [](Scheduler* s, BandwidthGate* l, Time* done) -> Process {
    co_await l->Transmit(68);
    *done = s->now();
  };
  sched.Spawn(video(&link), "video", Priority::kHigh);
  sched.Spawn(audio(&sched, &link, &audio_done), "audio", Priority::kLow);
  sched.RunUntilQuiescent();
  EXPECT_EQ(audio_done, link.TransmissionTime(50'000) + link.TransmissionTime(68));
  EXPECT_GE(audio_done, Millis(20));
}

TEST(ResourceTest, ZeroHoldOnIdleResourceDoesNotSuspend) {
  // A reservation that ends now is already complete: the awaiting process
  // carries on in the same dispatch, with no timer and no context switch.
  Scheduler sched;
  CpuModel cpu(&sched, "cpu");
  BandwidthGate link(&sched, "link", 20'000'000);
  uint64_t switches_before = 0;
  uint64_t switches_after = 0;
  size_t timers_after = 1;
  auto user = [](Scheduler* s, CpuModel* c, BandwidthGate* l, uint64_t* before, uint64_t* after,
                 size_t* timers) -> Process {
    co_await s->WaitFor(Micros(10));
    *before = s->context_switches();
    co_await c->Acquire(0);
    co_await c->Consume(0);
    co_await l->Transmit(0);
    *after = s->context_switches();
    *timers = s->pending_timer_count();
  };
  sched.Spawn(user(&sched, &cpu, &link, &switches_before, &switches_after, &timers_after), "u");
  sched.RunUntilQuiescent();
  EXPECT_EQ(switches_after, switches_before);
  EXPECT_EQ(timers_after, 0u);
  EXPECT_EQ(sched.now(), Micros(10));
  EXPECT_EQ(cpu.busy_time(), 0);
  EXPECT_EQ(cpu.max_queue_delay(), 0);
  EXPECT_EQ(link.next_free(), Micros(10));
}

// Every `args.value` of the counter track `name` in an exported trace, in
// recording order.
std::vector<int64_t> CounterValues(const std::string& json, const std::string& name) {
  std::vector<int64_t> values;
  const std::string key = "{\"name\":\"" + name + "\",\"ph\":\"C\"";
  for (size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    const size_t value = json.find("\"value\":", at);
    values.push_back(std::stoll(json.substr(value + 8)));
  }
  return values;
}

TEST(ResourceTest, QueuedMixedSequenceKeepsItsBookkeeping) {
  // Two processes at different priorities interleave CPU charges and link
  // transmissions; the per-reservation queue delays (the `.queue_us`
  // counter track), the running maxima, busy time and next-free instants
  // are pinned to the values recorded when each reservation was a Task
  // coroutine.
  Scheduler sched;
  sched.trace()->Enable();
  CpuModel cpu(&sched, "cpu");
  BandwidthGate link(&sched, "link", 1'000'000);  // 1 Mbit/s: 8 us per byte
  struct Rig {
    Scheduler* sched;
    CpuModel* cpu;
    BandwidthGate* link;
    std::vector<int64_t> seen;
    void Note() {
      seen.insert(seen.end(), {sched->now(), cpu->max_queue_delay(), cpu->busy_time(),
                               cpu->next_free(), link->max_queue_delay(), link->busy_time(),
                               link->next_free()});
    }
  };
  Rig rig{&sched, &cpu, &link, {}};
  auto high = [](Rig* r) -> Process {
    co_await r->cpu->Consume(Micros(100));
    r->Note();
    co_await r->link->Transmit(10);
    r->Note();
    co_await r->sched->WaitFor(Micros(5));
    co_await r->cpu->Acquire(Micros(30));
    r->Note();
  };
  auto low = [](Rig* r) -> Process {
    co_await r->cpu->Consume(Micros(50));
    r->Note();
    co_await r->link->Transmit(25);
    r->Note();
    co_await r->cpu->Consume(0);
    r->Note();
    co_await r->link->Transmit(3);
    r->Note();
  };
  sched.Spawn(low(&rig), "low", Priority::kLow);
  sched.Spawn(high(&rig), "high", Priority::kHigh);
  sched.RunUntilQuiescent();

  // Rows: now, cpu {max queue, busy, next free}, link {max queue, busy,
  // next free}, one row per completed reservation in completion order.
  const std::vector<int64_t> want = {
      100, 100, 150, 150, 0,  0,   100,  // high: 100 us CPU, ran first
      150, 100, 150, 150, 0,  80,  180,  // low: 50 us CPU queued 100 us
      180, 100, 150, 180, 30, 280, 380,  // high: 10 bytes; low's 25 queue 30 us
      215, 100, 180, 215, 30, 280, 380,  // high: 30 us CPU after a 5 us nap
      380, 100, 180, 380, 30, 280, 380,  // low: 25 bytes done
      380, 100, 180, 380, 30, 280, 380,  // low: zero charge, no wait
      404, 100, 180, 404, 30, 304, 404,  // low: 3 bytes
  };
  EXPECT_EQ(rig.seen, want);
  const std::string json = sched.trace()->ExportJson();
  EXPECT_EQ(CounterValues(json, "cpu.queue_us"), (std::vector<int64_t>{0, 100, 0, 0}));
  EXPECT_EQ(CounterValues(json, "link.queue_us"), (std::vector<int64_t>{0, 30, 0}));
  EXPECT_EQ(cpu.busy_time(), Micros(180));
  EXPECT_EQ(link.busy_time(), Micros(304));
  EXPECT_EQ(cpu.max_queue_delay(), Micros(100));
  EXPECT_EQ(link.max_queue_delay(), Micros(30));
}

TEST(ResourceTest, KilledWhileWaitingOnConsumeLeavesTimerHarmless) {
  // The reservation's wakeup timer pins the victim's slab slot; the kill
  // destroys the frame, the timer later fires into a finished record and
  // releases the slot, and nothing resumes the destroyed frame.
  Scheduler sched;
  CpuModel cpu(&sched, "cpu");
  bool resumed = false;
  auto victim = [](CpuModel* c, bool* resumed) -> Process {
    co_await c->Consume(Micros(100));
    *resumed = true;
  };
  sched.Spawn(victim(&cpu, &resumed), "victim");
  sched.RunFor(Micros(10));
  ASSERT_EQ(sched.pending_timer_count(), 1u);
  EXPECT_EQ(sched.KillProcesses([](const ProcessCtx& ctx) { return ctx.name == "victim"; }), 1u);
  EXPECT_EQ(sched.live_process_count(), 0u);
  EXPECT_EQ(sched.tracked_process_count(), 1u);  // held by the pending wakeup
  sched.RunUntilQuiescent();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(sched.now(), Micros(100));
  EXPECT_EQ(sched.pending_timer_count(), 0u);
  EXPECT_EQ(sched.tracked_process_count(), 0u);
  // The booked CPU time stays booked: a later charge queues behind it.
  EXPECT_EQ(cpu.busy_time(), Micros(100));
  Time done = -1;
  auto next = [](Scheduler* s, CpuModel* c, Time* done) -> Process {
    co_await c->Consume(Micros(7));
    *done = s->now();
  };
  sched.Spawn(next(&sched, &cpu, &done), "next");
  sched.RunUntilQuiescent();
  EXPECT_EQ(done, Micros(107));
}

TEST(RandomTest, DeterministicAcrossRuns) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
  Rng c(123);
  EXPECT_EQ(c.UniformInt(0, 100), Rng(123).UniformInt(0, 100));
}

TEST(RandomTest, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_FALSE(Rng(1).Bernoulli(0.0));
  EXPECT_TRUE(Rng(1).Bernoulli(1.0));
}

TEST(SchedulerTest, CompletedProcessesRecycleAutomatically) {
  Scheduler sched;
  auto quick = []() -> Process { co_return; };
  std::vector<ProcessHandle> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sched.Spawn(quick(), "q" + std::to_string(i)));
  }
  sched.RunUntilQuiescent();
  // Slab recycling releases bookkeeping the moment a process finishes: no
  // manual sweep and nothing left tracked.
  EXPECT_EQ(sched.live_process_count(), 0u);
  EXPECT_EQ(sched.tracked_process_count(), 0u);
  // Handles over recycled slots stay safe: they read done, not the slot's
  // next occupant.
  for (const ProcessHandle& h : handles) {
    EXPECT_TRUE(h.done());
  }
  // The scheduler keeps working, reusing the recycled records.
  int ran = 0;
  auto proc = [](int* flag) -> Process {
    *flag = 1;
    co_return;
  };
  ProcessHandle after = sched.Spawn(proc(&ran), "after");
  // A fresh spawn in a recycled slot must not look done through old handles.
  EXPECT_FALSE(after.done());
  sched.RunUntilQuiescent();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(after.done());
  EXPECT_EQ(sched.tracked_process_count(), 0u);
}

TEST(SchedulerTest, ContextSwitchCounting) {
  Scheduler sched;
  Channel<int> ch(&sched);
  auto ping = [](Channel<int>* c) -> Process {
    for (int i = 0; i < 10; ++i) {
      co_await c->Send(i);
    }
  };
  auto pong = [](Channel<int>* c) -> Process {
    for (int i = 0; i < 10; ++i) {
      (void)co_await c->Receive();
    }
  };
  sched.Spawn(ping(&ch), "ping");
  sched.Spawn(pong(&ch), "pong");
  sched.RunUntilQuiescent();
  // Rendezvous fast paths let one resumption complete several transfers, so
  // the switch count is below 2 per message but still at least half of them.
  EXPECT_GE(sched.context_switches(), 10u);
  EXPECT_EQ(ch.transfers(), 10u);
}

TEST(StatsTest, BasicMoments) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.Variance(), 0.0);
  acc.Add(2.0);
  acc.Add(4.0);
  acc.Add(6.0);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 6.0);
  // Population variance of {2, 4, 6} is 8/3.
  EXPECT_NEAR(acc.Variance(), 8.0 / 3.0, 1e-12);
}

TEST(StatsTest, VarianceStableWithLargeOffset) {
  // Regression: the naive sum_sq/n - mean^2 form cancels catastrophically
  // when samples carry a large common offset — exactly the shape of
  // latencies measured against a big absolute simulated timestamp.  The
  // true population variance of {x, x+1, x+2} is 2/3 for any offset x.
  StatAccumulator acc;
  acc.Add(1e9 + 0.0);
  acc.Add(1e9 + 1.0);
  acc.Add(1e9 + 2.0);
  EXPECT_NEAR(acc.Mean(), 1e9 + 1.0, 1e-3);
  EXPECT_NEAR(acc.Variance(), 2.0 / 3.0, 1e-6);
  EXPECT_NEAR(acc.StdDev(), std::sqrt(2.0 / 3.0), 1e-6);
}

}  // namespace
}  // namespace pandora
