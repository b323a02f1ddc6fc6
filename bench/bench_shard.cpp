// E19: sharded scheduler scaling — wall-clock events/sec of the same storm
// under the M:N worker pool at 1, 2, 4 and 8 OS threads, plus the legacy
// single-shard engine as the no-window baseline.
//
// The paper scales by adding transputers to the backplane and letting the
// switch fabric carry the streams between them (sections 3.1, 4); this
// reproduction scales the same world picture by partitioning the simulation
// into shards under conservative time synchronisation (DESIGN.md section
// 13).  Two claims are scored:
//
//   events/sec    scheduler dispatches per wall-clock second at each thread
//                 count, on an identical 64-actor cross-shard storm.  The
//                 speedup rows are measured/threads=1 — the M:N win.
//   allocs/event  global operator-new calls per dispatch in the measured
//                 (post-warmup) window.  Must stay zero: the per-thread
//                 FramePool free lists and the capacity-retaining mailboxes
//                 absorb cross-shard churn without touching the heap.
//   events/window dispatches per barrier round: the work a window gives each
//                 barrier to amortise.
//   parks/window  barrier waits that outlasted their spin and parked, per
//                 round (ShardSet::barrier_parks); high values mean the
//                 threads slept through the barrier instead of spinning.
//
// The --json output is the perf trajectory checked in as BENCH_shard.json.
// CI gates (plain build only) compare rows of the same run: allocs/event
// ~ 0 at every thread count, every thread count's events/sec >= 0.2x the
// 1-thread row (catches spin collapse on oversubscribed hosts), and — only
// when the runner actually has >= 8 hardware threads — >= 3x speedup at 8
// threads.  The "hardware threads" row is emitted so the gate can tell a
// slow engine from a small machine.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "tests/shard_harness.h"

// --- global counting allocator ----------------------------------------------
// Unlike bench_engine's plain counter, the measured region here is
// multi-threaded (shard workers), so the count is a relaxed atomic: exact in
// total, order irrelevant.
namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pandora {
namespace {

struct ShardScore {
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  double events_per_window = 0.0;
  double parks_per_window = 0.0;
  uint64_t merged_hash = 0;
};

ShardStormOptions StormConfig(int shards, int threads) {
  ShardStormOptions opt;
  opt.shards = shards;
  opt.threads = threads;
  opt.total_actors = 64;
  opt.seed = 0xE19;
  opt.duration = Seconds(12);  // overwritten by the phase driver below
  return opt;
}

// One cold world per configuration: warm to 2 s of simulated time (free
// lists, slabs, mailbox and scratch capacity all reach steady state), then
// measure the next 10 s of simulated time under wall clock + allocation
// counters.
ShardScore RunConfig(int shards, int threads, bool traced = false) {
  ShardStormWorld world(StormConfig(shards, threads));
  world.Start();
  if (traced) {
    // Per-shard recorders fill during the run; the merged export below
    // re-interns every site under an "sN:" prefix (one Perfetto track group
    // per shard).  Capacity is reserved up front, so recording costs no
    // allocations inside the measured window.
    world.shard_set()->EnableTrace(1 << 15);
  }
  world.RunUntil(Seconds(2));

  const ShardSet& set = *world.shard_set();
  const uint64_t events_before = world.TotalContextSwitches();
  const uint64_t windows_before = set.windows();
  const uint64_t parks_before = set.barrier_parks();
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const auto wall_before = std::chrono::steady_clock::now();
  world.RunUntil(Seconds(12));
  const auto wall_after = std::chrono::steady_clock::now();
  const uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t events = world.TotalContextSwitches() - events_before;
  const uint64_t windows = set.windows() - windows_before;
  const uint64_t parks = set.barrier_parks() - parks_before;

  ShardScore score;
  const double wall_s = std::chrono::duration<double>(wall_after - wall_before).count();
  score.events_per_sec = wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  score.allocs_per_event =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0.0;
  if (windows > 0) {
    score.events_per_window = static_cast<double>(events) / static_cast<double>(windows);
    score.parks_per_window = static_cast<double>(parks) / static_cast<double>(windows);
  }
  if (traced && !world.shard_set()->ExportMergedTraceTo(BenchState().trace_path)) {
    std::fprintf(stderr, "failed to write merged trace to %s\n",
                 BenchState().trace_path.c_str());
  }
  score.merged_hash = world.Finish().merged_hash;
  return score;
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  // --shards=N / --threads=M pin a single configuration instead of the
  // default 1/2/4/8-thread sweep (hand experiments; README "Sharded
  // execution").  BenchParseArgs ignores the flags, so parse them here.
  int only_shards = 0;
  int only_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--shards=", 0) == 0) {
      only_shards = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      only_threads = std::atoi(arg.c_str() + 10);
    }
  }
  BenchHeader("E19", "sharded scheduler scaling (events/sec by thread count)",
              "sections 3.1/4: Pandora scales by adding boards to the backplane; "
              "the reproduction scales the same worlds across shards under "
              "conservative synchronisation");

  if (only_shards > 0 || only_threads > 0) {
    const int shards = only_shards > 0 ? only_shards : 8;
    const int threads = only_threads > 0 ? only_threads : 1;
    const ShardScore score = RunConfig(shards, threads, BenchTraceRequested());
    const std::string tag =
        std::to_string(shards) + " shards, " + std::to_string(threads) + " threads ";
    BenchRow(tag + "events/sec", score.events_per_sec, "ev/s");
    BenchRow(tag + "allocs/event", score.allocs_per_event, "alloc");
    BenchRow(tag + "events/window", score.events_per_window, "ev");
    BenchRow(tag + "parks/window", score.parks_per_window, "parks");
    BenchRow("hardware threads", static_cast<double>(std::thread::hardware_concurrency()),
             "cpus");
    return BenchFinish();
  }

  const ShardScore legacy = RunConfig(/*shards=*/1, /*threads=*/1);
  BenchRow("legacy 1-shard events/sec", legacy.events_per_sec, "ev/s");
  BenchRow("legacy 1-shard allocs/event", legacy.allocs_per_event, "alloc");

  double base_eps = 0.0;
  uint64_t base_hash = 0;
  for (const int threads : {1, 2, 4, 8}) {
    // The 8-thread leg carries the merged per-shard trace when requested.
    const ShardScore score =
        RunConfig(/*shards=*/8, threads, /*traced=*/threads == 8 && BenchTraceRequested());
    const std::string tag = "8 shards, " + std::to_string(threads) + " threads ";
    BenchRow(tag + "events/sec", score.events_per_sec, "ev/s");
    BenchRow(tag + "allocs/event", score.allocs_per_event, "alloc");
    BenchRow(tag + "events/window", score.events_per_window, "ev");
    BenchRow(tag + "parks/window", score.parks_per_window, "parks");
    if (threads == 1) {
      base_eps = score.events_per_sec;
      base_hash = score.merged_hash;
    } else {
      BenchRow(tag + "speedup", base_eps > 0 ? score.events_per_sec / base_eps : 0.0, "x");
      // Scaling must never buy divergence: every thread count reproduces the
      // sequential run's merged observable hash or the bench itself fails.
      if (score.merged_hash != base_hash) {
        std::fprintf(stderr, "FATAL: merged hash diverged at %d threads\n", threads);
        return 1;
      }
    }
  }
  BenchRow("hardware threads", static_cast<double>(std::thread::hardware_concurrency()), "cpus");
  BenchNote("events = scheduler dispatches summed over shards; identical 64-actor "
            "storm per configuration; merged observable hash cross-checked against "
            "the sequential run at every thread count");
  return BenchFinish();
}
