// E17: engine throughput — wall-clock events/sec and heap allocations/event
// for the discrete-event runtime itself.
//
// The paper's whole design leans on the transputer's "very cheap context
// switches" and its one-microsecond timer (section 3.1); E5 shows a server
// board shrugging off ~5 kHz switching.  For the reproduction to be the
// cheap substrate the paper assumed, the engine hot path (timer arm/fire,
// channel rendezvous, process spawn/exit, ALT selection) must not touch the
// heap in steady state.  This bench drives four calibrated storms plus a
// mixed storm over the workload's real horizons
// (2 ms block timers up to 8 s clawback timers) and reports, per storm:
//
//   events/sec    wall-clock scheduler dispatches per second (simulated time
//                 is free; this is the real cost of running an experiment)
//   allocs/event  global operator-new calls per dispatch, measured AFTER a
//                 warmup pass so steady-state recycling is what is scored
//
// The --json output is the perf trajectory point checked in as
// BENCH_engine.json; CI fails if allocs/event leaves zero or events/sec
// regresses more than 20 % against the checked-in numbers (plain build
// only; sanitizers change both numbers by design).
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/runtime/alt.h"
#include "src/runtime/channel.h"
#include "src/runtime/random.h"
#include "src/runtime/scheduler.h"
#include "tests/counting_allocator.h"

namespace pandora {
namespace {

struct StormScore {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

// Runs a storm twice on one scheduler: Setup builds the storm's channels
// and lanes ONCE (world construction is not what this bench scores), then a
// warmup Drive pass fills every free list, pool, ticket table and container
// capacity, and a measured Drive pass is scored.  events() counts scheduler
// dispatches; allocs/event must be exactly zero.
template <typename Storm>
StormScore RunStorm(uint64_t warmup_iters, uint64_t iters) {
  Scheduler sched;
  ShutdownGuard guard(&sched);
  Storm storm;  // declared after the scheduler: channels die before it does
  storm.Setup(sched);
  // Two warmup passes, each the full measured length.  Slab growth happens
  // only when the CONCURRENT-live high-water mark of process records or
  // timer nodes rises, and that peak depends on where in the timer wheel's
  // phase a pass starts.  One pass leaves ~5 allocations inside the measured
  // region (the second pass starts at a different wheel phase and peaks a
  // hair higher); two passes cover both phases and the measured pass runs
  // allocation-free — exactly 0, not rounded.
  storm.Drive(sched, warmup_iters);
  storm.Drive(sched, warmup_iters);

  const uint64_t events_before = sched.events();
  const uint64_t allocs_before = HeapAllocCount();
  if (std::getenv("PANDORA_BENCH_TRAP") != nullptr) {
    TraceHeapAllocs(true);  // debugging aid: print each stray alloc's stack
  }
  const auto wall_before = std::chrono::steady_clock::now();
  storm.Drive(sched, iters);
  const auto wall_after = std::chrono::steady_clock::now();
  TraceHeapAllocs(false);
  const uint64_t allocs = HeapAllocCount() - allocs_before;
  const uint64_t events = sched.events() - events_before;

  StormScore score;
  const double wall_s = std::chrono::duration<double>(wall_after - wall_before).count();
  score.events_per_sec = wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  score.allocs_per_event =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  return score;
}

// --- storm 1: timer churn ---------------------------------------------------
// 64 processes sleeping jittered intervals across the paper's 2 ms segment
// cadence, with a handful of long 8 s clawback-horizon timers armed in the
// background so the far levels of the timer structure stay populated.
struct TimerChurnStorm {
  void Setup(Scheduler&) {}
  void Drive(Scheduler& sched, uint64_t iters) {
    const int kProcs = 64;
    const uint64_t per_proc = iters / kProcs + 1;
    auto sleeper = [](Scheduler* s, Rng rng, uint64_t n) -> Process {
      for (uint64_t i = 0; i < n; ++i) {
        co_await s->WaitFor(Micros(rng.UniformInt(200, 20'000)));
      }
    };
    auto horizon = [](Scheduler* s, uint64_t n) -> Process {
      for (uint64_t i = 0; i < n; ++i) {
        co_await s->WaitFor(Seconds(8));
      }
    };
    Rng rng(101);
    for (int p = 0; p < kProcs; ++p) {
      sched.Spawn(sleeper(&sched, rng.Fork(), per_proc), "t");
    }
    sched.Spawn(horizon(&sched, per_proc / 400 + 1), "h");
    sched.RunUntilQuiescent();
  }
};

// --- storm 2: channel rendezvous --------------------------------------------
// 8 ping/pong pairs; every transfer parks one side, so both the parked-send
// and the ticketed-delivery paths are on the measured loop.  The channel
// pairs are built in Setup: constructing channels is world bring-up, not the
// steady state this bench scores.
struct RendezvousStorm {
  static constexpr int kPairs = 8;
  struct Pair {
    Pair(Scheduler* s) : ping(s, "ping"), pong(s, "pong") {}
    Channel<int> ping;
    Channel<int> pong;
  };
  std::vector<std::unique_ptr<Pair>> pairs;

  void Setup(Scheduler& sched) {
    for (int p = 0; p < kPairs; ++p) {
      pairs.push_back(std::make_unique<Pair>(&sched));
    }
  }

  void Drive(Scheduler& sched, uint64_t iters) {
    const uint64_t per_pair = iters / (4 * kPairs) + 1;
    auto client = [](Pair* pair, uint64_t n) -> Process {
      for (uint64_t i = 0; i < n; ++i) {
        co_await pair->ping.Send(static_cast<int>(i));
        (void)co_await pair->pong.Receive();
      }
    };
    auto server = [](Pair* pair, uint64_t n) -> Process {
      for (uint64_t i = 0; i < n; ++i) {
        int v = co_await pair->ping.Receive();
        co_await pair->pong.Send(v + 1);
      }
    };
    for (auto& pair : pairs) {
      sched.Spawn(client(pair.get(), per_pair), "c");
      sched.Spawn(server(pair.get(), per_pair), "s");
    }
    sched.RunUntilQuiescent();
  }
};

// --- storm 3: spawn/exit churn ----------------------------------------------
// Mimics the network's per-segment forwarders (src/net/atm.cc): a short
// coroutine per delivered segment, thousands of times per simulated second.
// Records recycle into the slab the moment each forwarder finishes, with no
// housekeeping between batches.
struct SpawnChurnStorm {
  void Setup(Scheduler&) {}
  void Drive(Scheduler& sched, uint64_t iters) {
    const uint64_t batches = iters / (2 * 4096) + 1;
    auto forwarder = [](Scheduler* s) -> Process { co_await s->WaitFor(Micros(100)); };
    for (uint64_t b = 0; b < batches; ++b) {
      for (int i = 0; i < 4096; ++i) {
        sched.Spawn(forwarder(&sched), "f", Priority::kHigh);
      }
      sched.RunUntilQuiescent();
    }
  }
};

// --- storm 4: ALT storm -----------------------------------------------------
// Consumers select over two data channels plus a timeout guard; producers
// pace so a large fraction of selects arm-and-cancel the timeout (the
// Alt-heavy shape every receiver-with-deadline in the system has).
struct AltStorm {
  static constexpr int kConsumers = 8;
  struct Lane {
    Lane(Scheduler* s) : a(s, "a"), b(s, "b") {}
    Channel<int> a;
    Channel<int> b;
  };
  std::vector<std::unique_ptr<Lane>> lanes;

  void Setup(Scheduler& sched) {
    for (int i = 0; i < kConsumers; ++i) {
      lanes.push_back(std::make_unique<Lane>(&sched));
    }
  }

  void Drive(Scheduler& sched, uint64_t iters) {
    const uint64_t per_consumer = iters / (4 * kConsumers) + 1;
    auto producer = [](Scheduler* s, Channel<int>* ch, Rng rng, uint64_t n) -> Process {
      for (uint64_t i = 0; i < n; ++i) {
        co_await ch->Send(static_cast<int>(i));
        co_await s->WaitFor(Micros(rng.UniformInt(150, 600)));
      }
    };
    auto consumer = [](Scheduler* s, Lane* lane, Rng rng, uint64_t n) -> Process {
      for (uint64_t done = 0; done < n;) {
        Alt alt(s);
        alt.OnReceive(lane->a).OnReceive(lane->b).OnTimeoutAfter(
            Micros(rng.UniformInt(100, 400)));
        int chosen = co_await alt.Select();
        if (chosen == 0) {
          (void)co_await lane->a.Receive();
          ++done;
        } else if (chosen == 1) {
          (void)co_await lane->b.Receive();
          ++done;
        }
      }
    };
    Rng rng(202);
    for (auto& lane : lanes) {
      sched.Spawn(producer(&sched, &lane->a, rng.Fork(), per_consumer / 2 + 1), "pa");
      sched.Spawn(producer(&sched, &lane->b, rng.Fork(), per_consumer / 2 + 1), "pb");
      sched.Spawn(consumer(&sched, lane.get(), rng.Fork(), per_consumer), "c");
    }
    sched.RunUntilQuiescent();
  }
};

// --- storm 5: mixed ---------------------------------------------------------
// All four shapes back-to-back on one scheduler, weighted the way a real box
// mesh spends its dispatches: per-segment wire traffic (one rendezvous send
// per segment per stage) dominates, with timers, forwarder spawns and Alt
// deadlines sharing the rest — the profile E5/E16 worlds actually produce.
struct MixedStorm {
  TimerChurnStorm timers;
  RendezvousStorm rendezvous;
  SpawnChurnStorm spawns;
  AltStorm alts;

  void Setup(Scheduler& sched) {
    timers.Setup(sched);
    rendezvous.Setup(sched);
    spawns.Setup(sched);
    alts.Setup(sched);
  }

  void Drive(Scheduler& sched, uint64_t iters) {
    // Weights follow the dispatch profile of a running call mesh: every
    // segment crosses switch → egress → wire → ingress → switch → buffer, so
    // per-segment events outnumber block-timer fires well over 10:1.
    timers.Drive(sched, iters / 16);
    rendezvous.Drive(sched, (11 * iters) / 16);
    spawns.Drive(sched, iters / 8);
    alts.Drive(sched, iters / 8);
  }
};

void Report(const std::string& name, const StormScore& score) {
  BenchRow(name + " events/sec", score.events_per_sec, "ev/s");
  BenchRow(name + " allocs/event", score.allocs_per_event, "alloc");
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("E17", "engine throughput (events/sec, allocations/event)",
              "section 3.1: 'very cheap' context switches and a 1 us timer are "
              "the substrate every other experiment stands on");

  // Warmup runs the SAME iteration count as the measured pass (twice — see
  // RunStorm): each storm reseeds its Rngs per Drive, so a warmup pass
  // replays the measured pass's workload and every recycling structure
  // (process-record slab, timer-node arena, channel ticket tables) reaches
  // its high-water capacity before measurement starts.
  const uint64_t kWarmup = 2'000'000;
  const uint64_t kIters = 2'000'000;
  Report("timer churn", RunStorm<TimerChurnStorm>(kWarmup, kIters));
  Report("rendezvous", RunStorm<RendezvousStorm>(kWarmup, kIters));
  Report("spawn churn", RunStorm<SpawnChurnStorm>(kWarmup, kIters));
  Report("alt storm", RunStorm<AltStorm>(kWarmup, kIters));
  Report("mixed storm", RunStorm<MixedStorm>(kWarmup, kIters));
  BenchNote("events = dispatches (Scheduler::events); allocs counted by a global "
            "counting operator new around the measured (post-warmup) pass");
  return BenchFinish();
}
