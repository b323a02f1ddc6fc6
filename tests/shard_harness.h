// Shard-invariance storm harness for the sharded M:N scheduler.
//
// Drives a synthetic world that exercises exactly the machinery ShardSet
// adds over a bare Scheduler: actors pinned to shards exchange seeded
// periodic messages over links whose latency always covers the lookahead,
// deliveries spawn short-lived forwarder processes (frame-pool churn) and
// payload-deterministic replies, and an optional FaultPlan overlays crashes,
// restarts, burst loss and jitter storms on the same timeline.  Used by
// tests/shard_determinism_test.cc, the sharded leg of
// tests/fault_property_test.cc, tests/shard_soak_test.cc (TSan) and
// bench/bench_shard.cpp, so it lives in a header both tests and benches
// include.
//
// Every observable folds into one of two hash families:
//
//   shard hash (order-sensitive)   Per shard: the FNV chain of every
//       (src,dst) delivery stream terminating on the shard, folded in
//       delivery order, the shard's arrival chain (every message landing
//       on the shard, in dispatch order across all links — the only fold
//       that sees how equal-instant arrivals from different source shards
//       interleave, i.e. the mailbox drain order), plus the shard's
//       execution digest.  Equal across runs and across thread counts for
//       a fixed shard layout — the replay and M:N-invariance gates.
//
//   merged hash (partition-invariant)   A commutative per-pair accumulator
//       (each delivery contributes a SplitMix64 of its absolute time,
//       payload and pair key) plus per-actor counters.  Insensitive to how
//       equal-instant deliveries on *different* pairs interleave — which is
//       the one ordering a partition change may legitimately permute — yet
//       pins the exact multiset of (time, payload) per link.  Equal across
//       shard counts for the same seed: the conservative-sync correctness
//       gate.
//
// All randomness is SplitMix64 (no std::random engines), so the hashes are
// identical across standard libraries, not just across runs.
#ifndef PANDORA_TESTS_SHARD_HARNESS_H_
#define PANDORA_TESTS_SHARD_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fault/plan.h"
// The shared FNV-1a helpers (FnvMix, kFnvOffset) live in the overlay's
// topology header; tests fold fingerprints with the same primitive the
// overlay run hash uses.
#include "src/overlay/topology.h"
#include "src/runtime/process.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"

namespace pandora {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct ShardStormOptions {
  int shards = 8;
  int threads = 1;
  int total_actors = 32;  // actor a lives on shard a % shards
  uint64_t seed = 1;
  Duration lookahead = Millis(1);
  // Every link's latency is base_latency (0 = use lookahead) + a per-link
  // extra in [0, max_extra_latency]; keep base_latency >= lookahead so
  // cross-shard sends always clear the window.  Setting it explicitly pins
  // delivery times while the lookahead knob is swept.
  Duration base_latency = 0;
  Duration max_extra_latency = Millis(3);
  Duration duration = Seconds(2);
  int peers_per_actor = 3;
  Duration min_period = Micros(700);
  Duration max_period = Millis(5);
  bool spawn_churn = true;  // forwarder process per delivery
  bool replies = true;      // 1-in-8 deliveries answer back
  // Optional chaos overlay; only (box-crash, churn, burst-loss,
  // jitter-storm) events are materialised, the rest are counted skipped.
  const FaultPlan* plan = nullptr;
};

struct ShardStormResult {
  std::vector<uint64_t> shard_hashes;  // one per shard, order-sensitive
  uint64_t merged_hash = 0;            // partition-invariant
  uint64_t sends = 0;
  uint64_t deliveries = 0;
  uint64_t drops = 0;
  uint64_t replies = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t skipped_fault_events = 0;
  uint64_t windows = 0;
  uint64_t cross_shard_messages = 0;
  uint64_t context_switches = 0;

  friend bool operator==(const ShardStormResult& a, const ShardStormResult& b) {
    return a.shard_hashes == b.shard_hashes && a.merged_hash == b.merged_hash &&
           a.sends == b.sends && a.deliveries == b.deliveries && a.drops == b.drops &&
           a.replies == b.replies && a.crashes == b.crashes && a.restarts == b.restarts &&
           a.skipped_fault_events == b.skipped_fault_events && a.windows == b.windows &&
           a.cross_shard_messages == b.cross_shard_messages &&
           a.context_switches == b.context_switches;
  }
};

class ShardStormWorld {
 public:
  explicit ShardStormWorld(const ShardStormOptions& opt) : opt_(opt) {
    const int actors = opt_.total_actors;
    actors_.resize(static_cast<size_t>(actors));
    pairs_.resize(static_cast<size_t>(actors) * static_cast<size_t>(actors));
    arrivals_.resize(static_cast<size_t>(opt_.shards));
    for (int id = 0; id < actors; ++id) {
      Actor& a = actors_[static_cast<size_t>(id)];
      a.id = id;
      a.shard = id % opt_.shards;
      a.name = "a" + std::to_string(id);
      a.fwd_name = a.name + ".f";
      for (int j = 0; j < opt_.peers_per_actor; ++j) {
        // Stateless peer choice: identical for every partition of the same
        // actor population.  `% (actors-1)` then skip-self keeps peer != id.
        int peer = static_cast<int>(
            SplitMix64(opt_.seed ^ (0x5851f42d4c957f2dull * static_cast<uint64_t>(id + 1)) ^
                       static_cast<uint64_t>(j)) %
            static_cast<uint64_t>(actors - 1));
        if (peer >= id) {
          ++peer;
        }
        a.peers.push_back(peer);
      }
    }
    if (opt_.plan != nullptr) {
      IngestPlan(*opt_.plan);
    }
  }

  // Builds the ShardSet, spawns every actor and arms the chaos timers.
  // Split from Run() so benches can warm up, then measure a steady-state
  // window with their own clocks and allocation counters around it.
  void Start() {
    ShardSetOptions set_options;
    set_options.shards = opt_.shards;
    set_options.threads = opt_.threads;
    set_options.lookahead = opt_.lookahead;
    owned_set_ = std::make_unique<ShardSet>(set_options);
    set_ = owned_set_.get();
    for (Actor& a : actors_) {
      set_->shard(a.shard).Spawn(ActorMain(this, a.id, 0), a.name);
    }
    // Chaos timers are armed before the first window, in plan order, on the
    // victim's own shard — the crash schedule is part of the timeline, not
    // of the thread layout.
    for (const CrashEvent& ev : crash_schedule_) {
      ShardStormWorld* w = this;
      const uint32_t actor = static_cast<uint32_t>(ev.actor);
      set_->shard(actors_[ev.actor].shard)
          .AddTimer(ev.at, TimerCallback([w, actor] { w->CrashActor(actor); }));
      if (ev.restart_at != kNever) {
        set_->shard(actors_[ev.actor].shard)
            .AddTimer(ev.restart_at, TimerCallback([w, actor] { w->RestartActor(actor); }));
      }
    }
  }

  void RunUntil(Time t) { set_->RunUntil(t); }

  // Scheduler dispatches across every shard so far (the bench's event count).
  uint64_t TotalContextSwitches() const {
    uint64_t n = 0;
    for (int s = 0; s < opt_.shards; ++s) {
      n += set_->shard(s).context_switches();
    }
    return n;
  }

  // Collects the hashes and counters, then shuts the world down.
  ShardStormResult Finish() {
    ShardSet& set = *set_;
    ShardStormResult result;
    result.shard_hashes.resize(static_cast<size_t>(opt_.shards));
    const size_t actors = actors_.size();
    for (int s = 0; s < opt_.shards; ++s) {
      uint64_t h = FnvMix(0xcbf29ce484222325ull, set.ShardDigest(s));
      h = FnvMix(h, arrivals_[static_cast<size_t>(s)].chain);
      for (size_t src = 0; src < actors; ++src) {
        for (size_t dst = 0; dst < actors; ++dst) {
          if (actors_[dst].shard != s) {
            continue;
          }
          const PairState& p = pairs_[src * actors + dst];
          h = FnvMix(h, p.chain);
          h = FnvMix(h, p.count);
        }
      }
      result.shard_hashes[static_cast<size_t>(s)] = h;
      result.context_switches += set.shard(s).context_switches();
    }
    uint64_t merged = 0xcbf29ce484222325ull;
    for (size_t src = 0; src < actors; ++src) {
      for (size_t dst = 0; dst < actors; ++dst) {
        const PairState& p = pairs_[src * actors + dst];
        merged = FnvMix(merged, p.acc);
        merged = FnvMix(merged, p.count);
      }
    }
    for (const Actor& a : actors_) {
      merged = FnvMix(merged, a.sends);
      merged = FnvMix(merged, a.deliveries);
      merged = FnvMix(merged, a.drops);
      merged = FnvMix(merged, a.replies);
      merged = FnvMix(merged, a.crashes + a.restarts);
      result.sends += a.sends;
      result.deliveries += a.deliveries;
      result.drops += a.drops;
      result.replies += a.replies;
      result.crashes += a.crashes;
      result.restarts += a.restarts;
    }
    result.merged_hash = merged;
    result.skipped_fault_events = skipped_fault_events_;
    result.windows = set.windows();
    result.cross_shard_messages = set.cross_shard_messages();
    set.Shutdown();
    return result;
  }

  ShardStormResult Run() {
    Start();
    set_->RunUntil(opt_.duration);
    return Finish();
  }

  ShardSet* shard_set() { return set_; }

 private:
  struct Actor {
    int id = 0;
    int shard = 0;
    std::string name;      // spawn + kill-predicate identity of the main loop
    std::string fwd_name;  // ditto for this actor's forwarders
    std::vector<int> peers;
    uint64_t incarnation = 0;
    bool alive = true;
    // Single-writer counters: sends by the actor's own shard, the rest by
    // the shard the event lands on (which is also the actor's own).
    uint64_t sends = 0;
    uint64_t deliveries = 0;
    uint64_t drops = 0;
    uint64_t replies = 0;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
  };

  // Per-(src,dst) delivery stream.  Written only by the destination actor's
  // shard, so no cell is ever touched by two workers.
  struct PairState {
    uint64_t chain = 0xcbf29ce484222325ull;  // order-sensitive FNV chain
    uint64_t acc = 0;                        // commutative accumulator
    uint64_t count = 0;
  };

  // Per-shard arrival chain, written only by its shard's worker; padded so
  // neighbouring shards' workers do not share a cache line.
  struct alignas(64) ArrivalChain {
    uint64_t chain = 0xcbf29ce484222325ull;
  };

  struct Episode {
    Time start = 0;
    Time end = kNever;
    double value = 0.0;
  };
  struct CrashEvent {
    Time at = 0;
    int actor = 0;
    Time restart_at = kNever;
  };

  void IngestPlan(const FaultPlan& plan) {
    for (const FaultEvent& ev : plan.events) {
      const Time end = ev.duration > 0 ? ev.at + ev.duration : kNever;
      switch (ev.kind) {
        case FaultKind::kBoxCrash:
        case FaultKind::kChurn: {
          CrashEvent crash;
          crash.at = ev.at;
          crash.actor = ev.target % opt_.total_actors;
          if (crash.actor < 0) {
            crash.actor += opt_.total_actors;
          }
          crash.restart_at = ev.duration > 0 ? ev.at + ev.duration : kNever;
          crash_schedule_.push_back(crash);
          break;
        }
        case FaultKind::kBurstLoss: {
          double fraction = ev.value;
          fraction = fraction < 0.0 ? 0.0 : (fraction > 1.0 ? 1.0 : fraction);
          loss_episodes_.push_back(Episode{ev.at, end, fraction});
          break;
        }
        case FaultKind::kJitterStorm: {
          // Clamp the magnitude: extra latency is always non-negative, so
          // any amount keeps the lookahead contract — the cap just keeps
          // delivery times inside the run.
          double magnitude = ev.value;
          magnitude = magnitude < 0.0 ? 0.0 : (magnitude > 2000.0 ? 2000.0 : magnitude);
          jitter_episodes_.push_back(Episode{ev.at, end, magnitude});
          break;
        }
        default:
          ++skipped_fault_events_;
          break;
      }
    }
  }

  static Process ActorMain(ShardStormWorld* w, int id, uint64_t incarnation) {
    Scheduler& sched = w->set_->shard(w->actors_[static_cast<size_t>(id)].shard);
    uint64_t rng = SplitMix64(w->opt_.seed ^
                              (0x2545f4914f6cdd1dull * static_cast<uint64_t>(id + 1)) ^
                              (incarnation * 0x9e3779b97f4a7c15ull));
    const uint64_t span =
        static_cast<uint64_t>(w->opt_.max_period - w->opt_.min_period + 1);
    for (;;) {
      rng = SplitMix64(rng);
      co_await sched.WaitFor(w->opt_.min_period + static_cast<Duration>(rng % span));
      Actor& a = w->actors_[static_cast<size_t>(id)];
      rng = SplitMix64(rng);
      const int peer = a.peers[rng % a.peers.size()];
      rng = SplitMix64(rng);
      w->Send(id, peer, rng);
    }
  }

  static Process Forwarder(ShardStormWorld* w, uint32_t src, uint32_t dst, uint64_t payload) {
    // A delivered payload becomes a short-lived process — the paper's
    // process-per-segment shape, and the FramePool churn the per-thread
    // free lists must absorb without allocating.
    Scheduler& sched = w->set_->shard(w->actors_[dst].shard);
    co_await sched.Yield();
    w->MaybeReply(src, dst, payload);
  }

  void MaybeReply(uint32_t src, uint32_t dst, uint64_t payload) {
    if (!opt_.replies || (payload & 7) != 0) {
      return;
    }
    Actor& a = actors_[dst];
    if (!a.alive) {
      return;
    }
    ++a.replies;
    Send(static_cast<int>(dst), static_cast<int>(src),
         SplitMix64(payload ^ 0xa0761d6478bd642full));
  }

  Duration LinkExtra(int src, int dst) const {
    return static_cast<Duration>(
        SplitMix64(opt_.seed ^ (static_cast<uint64_t>(src) << 32) ^
                   static_cast<uint64_t>(dst) ^ 0xe7037ed1a0b428dbull) %
        static_cast<uint64_t>(opt_.max_extra_latency + 1));
  }

  Duration JitterAt(Time now, uint64_t payload) const {
    for (const Episode& ep : jitter_episodes_) {
      if (now >= ep.start && now < ep.end && ep.value > 0.0) {
        return static_cast<Duration>(SplitMix64(payload ^ static_cast<uint64_t>(now)) %
                                     (static_cast<uint64_t>(ep.value) + 1));
      }
    }
    return 0;
  }

  bool LostAt(Time when, uint64_t payload) const {
    for (const Episode& ep : loss_episodes_) {
      if (when >= ep.start && when < ep.end) {
        const uint64_t roll =
            SplitMix64(payload ^ static_cast<uint64_t>(when) ^ 0x8bb84b93962eacc9ull) % 1000;
        return roll < static_cast<uint64_t>(ep.value * 1000.0);
      }
    }
    return false;
  }

  void Send(int src, int dst, uint64_t payload) {
    Actor& s = actors_[static_cast<size_t>(src)];
    if (!s.alive) {
      return;
    }
    ++s.sends;
    const Time now = set_->shard(s.shard).now();
    const Duration base = opt_.base_latency > 0 ? opt_.base_latency : opt_.lookahead;
    const Duration latency = base + LinkExtra(src, dst) + JitterAt(now, payload);
    ShardStormWorld* w = this;
    const uint32_t src32 = static_cast<uint32_t>(src);
    const uint32_t dst32 = static_cast<uint32_t>(dst);
    set_->Post(s.shard, actors_[static_cast<size_t>(dst)].shard, now + latency,
               TimerCallback([w, src32, dst32, payload] { w->OnDeliver(src32, dst32, payload); }));
  }

  void OnDeliver(uint32_t src, uint32_t dst, uint64_t payload) {
    Actor& a = actors_[dst];
    const Time when = set_->shard(a.shard).now();
    uint64_t& arrivals = arrivals_[static_cast<size_t>(a.shard)].chain;
    arrivals = FnvMix(FnvMix(arrivals, (static_cast<uint64_t>(src) << 32) | dst), payload);
    if (!a.alive || LostAt(when, payload)) {
      ++a.drops;
      return;
    }
    ++a.deliveries;
    PairState& p = pairs_[static_cast<size_t>(src) * actors_.size() + dst];
    p.chain = FnvMix(FnvMix(p.chain, static_cast<uint64_t>(when)), payload);
    p.acc += SplitMix64(static_cast<uint64_t>(when) ^ payload ^
                        ((static_cast<uint64_t>(src) << 32) | dst));
    ++p.count;
    if (opt_.spawn_churn) {
      set_->shard(a.shard).Spawn(Forwarder(this, src, dst, payload), a.fwd_name);
    } else {
      MaybeReply(src, dst, payload);
    }
  }

  void CrashActor(uint32_t id) {
    Actor& a = actors_[id];
    if (!a.alive) {
      return;
    }
    a.alive = false;
    ++a.crashes;
    // Kill exactly this actor's processes (main loop + forwarders), the way
    // Simulation::CrashBox takes down one box mid-run.  Scheduler context:
    // timers never run inside a process, so the predicate can't match the
    // caller.
    set_->shard(a.shard).KillProcesses([&a](const ProcessCtx& ctx) {
      return ctx.name == a.name || ctx.name == a.fwd_name;
    });
  }

  void RestartActor(uint32_t id) {
    Actor& a = actors_[id];
    if (a.alive) {
      return;
    }
    a.alive = true;
    ++a.restarts;
    ++a.incarnation;
    set_->shard(a.shard).Spawn(ActorMain(this, static_cast<int>(id), a.incarnation), a.name);
  }

  ShardStormOptions opt_;
  std::unique_ptr<ShardSet> owned_set_;  // created by Start(), lives until ~World
  ShardSet* set_ = nullptr;
  std::vector<Actor> actors_;
  std::vector<PairState> pairs_;
  std::vector<ArrivalChain> arrivals_;  // index = shard
  std::vector<Episode> loss_episodes_;
  std::vector<Episode> jitter_episodes_;
  std::vector<CrashEvent> crash_schedule_;
  uint64_t skipped_fault_events_ = 0;
};

inline ShardStormResult RunShardStorm(const ShardStormOptions& opt) {
  ShardStormWorld world(opt);
  return world.Run();
}

}  // namespace pandora

#endif  // PANDORA_TESTS_SHARD_HARNESS_H_
