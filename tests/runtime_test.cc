// Unit tests for the CSP runtime substrate: scheduler, channels, alt,
// timers, tasks and serial resources.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/small_vec.h"
#include "src/runtime/alt.h"
#include "src/runtime/channel.h"
#include "src/runtime/process.h"
#include "src/runtime/random.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/stats.h"
#include "src/runtime/task.h"
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

TEST(TaskTest, NestedTaskReturnsValueAndResumesParent) {
  Scheduler sched;
  int result = 0;
  auto inner = [](Scheduler* s) -> Task<int> {
    co_await s->WaitFor(Millis(1));
    co_return 5;
  };
  auto proc = [&inner](Scheduler* s, int* out) -> Process {
    int a = co_await inner(s);
    int b = co_await inner(s);
    *out = a + b;
  };
  sched.Spawn(proc(&sched, &result), "nested");
  sched.RunUntilQuiescent();
  EXPECT_EQ(result, 10);
  EXPECT_EQ(sched.now(), Millis(2));
}

TEST(TaskTest, TaskExceptionPropagatesToAwaiter) {
  Scheduler sched;
  bool caught = false;
  auto inner = []() -> Task<void> {
    throw std::runtime_error("inner");
    co_return;
  };
  auto proc = [&inner](bool* caught) -> Process {
    try {
      co_await inner();
    } catch (const std::runtime_error&) {
      *caught = true;
    }
  };
  sched.Spawn(proc(&caught), "catcher");
  sched.RunUntilQuiescent();
  EXPECT_TRUE(caught);
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

TEST(AltTest, SkipGuardMakesSelectNonBlocking) {
  Scheduler sched;
  Channel<int> a(&sched, "a");
  int chosen = -1;
  auto selector = [](Scheduler* s, Channel<int>* a, int* chosen) -> Process {
    Alt alt(s);
    alt.OnReceive(*a).OnSkip();
    *chosen = co_await alt.Select();
  };
  sched.Spawn(selector(&sched, &a, &chosen), "sel");
  sched.RunUntilQuiescent();
  EXPECT_EQ(chosen, 1);
  EXPECT_EQ(sched.now(), 0);
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

TEST(ChannelBatchTest, TryReceiveBatchOnEmptyChannelDrainsNothing) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  SmallVec<int, 8> out;
  EXPECT_EQ(ch.TryReceiveBatch(out, 8), 0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(sched.events(), sched.context_switches());
}

TEST(ChannelBatchTest, TryReceiveBatchDrainsParkedSendersFifo) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  int finished = 0;
  auto sender = [](Channel<int>* c, int id, int* done) -> Process {
    co_await c->Send(id);
    ++*done;
  };
  for (int i = 0; i < 5; ++i) {
    sched.Spawn(sender(&ch, i, &finished), "tx");
  }
  sched.RunUntilQuiescent();  // all five park
  ASSERT_EQ(ch.waiting_senders(), 5u);

  SmallVec<int, 8> out;
  EXPECT_EQ(ch.TryReceiveBatch(out, 8), 5);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);  // FIFO: park order preserved
  }
  EXPECT_EQ(ch.waiting_senders(), 0u);
  // Elements beyond the first replaced whole dispatches in the unbatched
  // engine and are credited to events() (DESIGN.md §15 accounting).
  EXPECT_EQ(sched.events(), sched.context_switches() + 4);
  sched.RunUntilQuiescent();  // woken senders finish
  EXPECT_EQ(finished, 5);
}

TEST(ChannelBatchTest, TryReceiveBatchRespectsMaxAndLeavesTailParked) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  auto sender = [](Channel<int>* c, int id) -> Process { co_await c->Send(id); };
  for (int i = 0; i < 5; ++i) {
    sched.Spawn(sender(&ch, i), "tx");
  }
  sched.RunUntilQuiescent();

  SmallVec<int, 8> out;
  EXPECT_EQ(ch.TryReceiveBatch(out, 2), 2);
  EXPECT_EQ(ch.waiting_senders(), 3u);
  EXPECT_EQ(ch.TryReceiveBatch(out, 8), 3);  // appends after existing contents
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
}

TEST(ChannelBatchTest, TryReceiveBatchSurvivesRingWraparoundAndSpill) {
  // Repeated park/drain rounds walk the sender ring's head past its initial
  // capacity (wraparound), and a 4-inline SmallVec receiving 6 elements per
  // round must spill to the heap without losing order.
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  auto sender = [](Channel<int>* c, int id) -> Process { co_await c->Send(id); };
  int next_id = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 6; ++i) {
      sched.Spawn(sender(&ch, next_id++), "tx");
    }
    sched.RunUntilQuiescent();
    ASSERT_EQ(ch.waiting_senders(), 6u);
    SmallVec<int, 4> out;
    EXPECT_EQ(ch.TryReceiveBatch(out, 6), 6);
    ASSERT_EQ(out.size(), 6u);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)], round * 6 + i);
    }
    sched.RunUntilQuiescent();
  }
  EXPECT_EQ(ch.transfers(), 24u);
}

TEST(ChannelBatchTest, TrySendBatchDeliversPrefixToParkedReceivers) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  std::vector<int> got;
  auto receiver = [](Channel<int>* c, std::vector<int>* out) -> Process {
    out->push_back(co_await c->Receive());
  };
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(receiver(&ch, &got), "rx");
  }
  sched.RunUntilQuiescent();  // all three park
  ASSERT_EQ(ch.waiting_receivers(), 3u);

  SmallVec<int, 8> values;
  for (int i = 0; i < 5; ++i) {
    values.push_back(10 + i);
  }
  EXPECT_EQ(ch.TrySendBatch(values), 3);
  // The consumed prefix is popped; the unsent tail stays in order.
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], 13);
  EXPECT_EQ(values[1], 14);
  sched.RunUntilQuiescent();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[1], 11);
  EXPECT_EQ(got[2], 12);
}

TEST(ChannelBatchTest, TrySendBatchWithoutReceiversIsANoOp) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  SmallVec<int, 4> values;
  values.push_back(1);
  values.push_back(2);
  EXPECT_EQ(ch.TrySendBatch(values), 0);
  EXPECT_EQ(values.size(), 2u);  // nothing consumed, nothing destroyed
  EXPECT_EQ(ch.transfers(), 0u);
}

TEST(ChannelBatchTest, TrySendBatchRespectsExplicitMax) {
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  std::vector<int> got;
  auto receiver = [](Channel<int>* c, std::vector<int>* out) -> Process {
    out->push_back(co_await c->Receive());
  };
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(receiver(&ch, &got), "rx");
  }
  sched.RunUntilQuiescent();
  SmallVec<int, 8> values;
  for (int i = 0; i < 5; ++i) {
    values.push_back(i);
  }
  EXPECT_EQ(ch.TrySendBatch(values, 2), 2);
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(ch.waiting_receivers(), 1u);
}

TEST(ChannelBatchTest, BatchDrainInterleavesWithAltWaiters) {
  // An Alt parked on the channel is notified the moment the first sender
  // parks and wins that value; a batch drainer arriving later must harvest
  // exactly the values the Alt did not take — no double delivery, no skip,
  // and FIFO order among what remains.  The late fourth send finds neither
  // and stays parked (a plain TryReceive completes it).
  Scheduler sched;
  Channel<int> ch(&sched, "ch");
  std::vector<int> drained;
  int alt_got = -1;
  bool alt_parked_once = false;

  auto alt_worker = [](Scheduler* s, Channel<int>* c, int* out, bool* parked) -> Process {
    *parked = true;
    Alt alt(s);
    alt.OnReceive(*c);
    (void)co_await alt.Select();
    std::optional<int> v = c->TryReceive();
    *out = v.value_or(-2);
  };
  auto sender = [](Scheduler* s, Channel<int>* c, int id, Duration delay) -> Process {
    co_await s->WaitFor(delay);
    co_await c->Send(id);
  };
  auto drainer = [](Scheduler* s, Channel<int>* c, std::vector<int>* out) -> Process {
    co_await s->WaitFor(Micros(10));  // after the Alt consumed its winner
    SmallVec<int, 8> batch;
    c->TryReceiveBatch(batch, 8);
    for (size_t i = 0; i < batch.size(); ++i) {
      out->push_back(batch[i]);
    }
  };
  sched.Spawn(alt_worker(&sched, &ch, &alt_got, &alt_parked_once), "alt");
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(sender(&sched, &ch, i, Micros(5)), "tx");
  }
  sched.Spawn(sender(&sched, &ch, 99, Micros(20)), "late-tx");
  sched.Spawn(drainer(&sched, &ch, &drained), "drain");
  sched.RunUntilQuiescent();

  EXPECT_TRUE(alt_parked_once);
  EXPECT_EQ(alt_got, 0);  // the Alt won the first parked value
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1);
  EXPECT_EQ(drained[1], 2);
  ASSERT_EQ(ch.waiting_senders(), 1u);  // the late send found no taker
  std::optional<int> late = ch.TryReceive();
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, 99);
}

TEST(ChannelBatchTest, MoveOnlyPayloadRoundTripsThroughBatch) {
  Scheduler sched;
  Channel<std::unique_ptr<int>> ch(&sched, "ch");
  auto sender = [](Channel<std::unique_ptr<int>>* c, int v) -> Process {
    co_await c->Send(std::make_unique<int>(v));
  };
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(sender(&ch, 100 + i), "tx");
  }
  sched.RunUntilQuiescent();
  SmallVec<std::unique_ptr<int>, 2> out;  // spills: move-only heap growth path
  EXPECT_EQ(ch.TryReceiveBatch(out, 8), 3);
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(out[static_cast<size_t>(i)], nullptr);
    EXPECT_EQ(*out[static_cast<size_t>(i)], 100 + i);
  }
  out.pop_front_n(2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(*out[0], 102);
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
    EXPECT_NO_THROW(h.CheckError());
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
