// worldbench: seeded whole-Pandora worlds, measured end to end and per layer.
//
//   worldbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <path>]
//
// One invocation sets a world up three times (build, plumbing, warmup; the
// median is setup_s, and the three post-warmup digests must agree), then
// runs a measured region of a fixed simulated horizon derived from
// (workload, seconds) and keeps running slices until `seconds` of wall time
// have passed.  Simulated metrics come from the fixed horizon, so they
// repeat exactly for a seed; host metrics come from the whole region.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 measures the same
// horizon with the TraceRecorder on and benchmark spans around every call
// into a layer, re-runs it untraced (and at 1 thread for sharded worlds) to
// check digests and get trace.overhead and shard.parallel_eff, runs the
// layer replay harness, and prints the per-layer metrics; the spans are
// written to --trace-out as Chrome/Perfetto JSON.
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}.
// Any failed check exits 1.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "replay.h"
#include "report.h"
#include "src/trace/trace.h"
#include "worlds.h"

namespace worldbench {
namespace {

using pandora::Duration;

constexpr int kSetups = 3;
constexpr double kAudioBudgetMs = 20.0;  // P7: the worst mouth-to-ear block

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "worldbench_trace.json";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

class Checks {
 public:
  void Expect(const std::string& name, bool ok, const std::string& detail) {
    items_.push_back(Check{name, ok, detail});
  }
  bool all_ok() const {
    return std::all_of(items_.begin(), items_.end(), [](const Check& c) { return c.ok; });
  }
  void Print() const {
    for (const Check& c : items_) {
      std::printf("check %-28s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
    }
  }

 private:
  std::vector<Check> items_;
};

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

// --- Setup and measured region ------------------------------------------------

struct SetupResult {
  std::unique_ptr<World> world;  // the last world built, warmed and ready
  std::vector<SetupTimes> times;
  std::vector<double> host_speed;  // reference probe / mean probe around each setup
  std::vector<uint64_t> warm_digests;
};

// Single-threaded worlds run on the CPU the steering picks (re-checked
// before every setup and every kSteerEvery measured slices); null leaves
// sharded worlds to the OS scheduler.
CpuSteering* g_steering = nullptr;
constexpr int kSteerEvery = 16;

SetupResult SetUp(const WorkloadSpec& spec, const WorldOptions& options, int repeats) {
  SetupResult result;
  for (int k = 0; k < repeats; ++k) {
    result.world.reset();  // one world alive at a time
    if (g_steering != nullptr) {
      g_steering->Steer();
    }
    const int64_t probe_before = HostProbeNs();
    {
      ScopedSpan span(options.spans, "core.setup", k);
      result.world = MakeWorld(spec, options);
      result.times.push_back(result.world->Setup());
    }
    const double probe = 0.5 * static_cast<double>(probe_before + HostProbeNs());
    result.host_speed.push_back(kReferenceProbeNs / probe);
    Counters warm{};
    result.world->Sample(&warm);
    result.warm_digests.push_back(DigestCounters(warm, 0));
  }
  return result;
}

struct Region {
  Counters delta{};           // over the fixed horizon
  uint64_t digest = 0;        // of `delta` plus the world's extra material
  double horizon_wall_s = 0;  // wall time of the fixed horizon
  uint64_t allocs = 0;        // heap allocations inside the fixed horizon
  // Peak RSS when the fixed horizon ends: the extension's length depends on
  // host speed, and a recording world keeps growing through it.
  double peak_rss_mb = 0;
  std::vector<double> slice_rates;  // sim-s per wall-s, every slice run
  std::vector<double> host_speed;   // reference probe / probe before each slice
  int slices = 0;
  int failed = 0;
  std::string error;

  // Per-slice rates as on the uncontended reference host.
  std::vector<double> ScaledRates() const {
    std::vector<double> scaled;
    for (size_t i = 0; i < slice_rates.size(); ++i) {
      scaled.push_back(slice_rates[i] / host_speed[i]);
    }
    return scaled;
  }
};

// Runs `horizon` of simulated time in slices (the measured, deterministic
// part), then more slices until `min_wall_s` of wall time has passed.
// Counters are sampled after every slice of the horizon (outside the slice's
// timing), so a box that crashes mid-region loses at most one slice of
// counts.
Region Measure(World& world, const WorkloadSpec& spec, Duration horizon, SpanRecorder* spans,
               double min_wall_s) {
  Region region;
  const int fixed = static_cast<int>(horizon / spec.slice);
  region.slice_rates.reserve(static_cast<size_t>(fixed) + 100000);
  region.host_speed.reserve(region.slice_rates.capacity());
  Counters start{};
  Counters now{};
  world.Sample(&start);
  const double slice_s = static_cast<double>(spec.slice) / 1e6;
  const int64_t t0 = WallNs();
  const uint64_t a0 = AllocCount();
  try {
    for (int i = 0;; ++i) {
      const int64_t elapsed = WallNs() - t0;
      if (i >= fixed && static_cast<double>(elapsed) >= min_wall_s * 1e9) {
        break;
      }
      if (g_steering != nullptr && i % kSteerEvery == kSteerEvery - 1) {
        g_steering->Steer();
      }
      region.host_speed.push_back(kReferenceProbeNs / static_cast<double>(HostProbeNs()));
      const int64_t ts = WallNs();
      {
        ScopedSpan span(spans, "runtime.RunFor", i);
        world.shard_set().RunFor(spec.slice);
      }
      const int64_t slice_ns = WallNs() - ts;
      region.slice_rates.push_back(slice_s / (static_cast<double>(slice_ns) / 1e9));
      ++region.slices;
      if (i < fixed) {
        world.Sample(&now);
      }
      if (i + 1 == fixed) {
        region.allocs = AllocCount() - a0;
        region.peak_rss_mb = PeakRssMb();
        region.horizon_wall_s = static_cast<double>(WallNs() - t0) / 1e9;
        region.delta = RegionDelta(start, now);
        region.digest = DigestCounters(region.delta, world.ExtraDigest());
      }
    }
  } catch (const std::exception& e) {
    ++region.failed;
    region.error = e.what();
  }
  return region;
}

// Simulated end-to-end quality over the fixed horizon, plus allocations per
// delivered segment.  Every value here repeats exactly for a seed.
void AddQualityMetrics(const Region& r, const World& world, MetricList* m) {
  const Counters& d = r.delta;
  const double delivered = d[kAudioSegmentsReceived] + d[kVideoSegmentsReceived] +
                           d[kOverlayDelivered];
  m->Add("allocs_per_seg", Ratio(static_cast<double>(r.allocs), delivered), "allocs/seg");
  m->Add("m2e_mean_ms", Ratio(d[kM2eSumUs], d[kM2eCount]) / 1e3, "ms");
  m->Add("m2e_max_ms", d[kM2eMaxUs] / 1e3, "ms");
  m->Add("glitch_frac",
         Ratio(d[kReplays] + d[kSilences], d[kBlocksMixed] + d[kSilences]), "fraction");
  const double video_ok = d[kVideoSegmentsReceived] - d[kUndecodable];
  m->Add("seg_loss_frac",
         Ratio(d[kAudioMissing] + (d[kVideoSegmentsSent] - video_ok),
               d[kAudioSegmentsReceived] + d[kAudioMissing] + d[kVideoSegmentsSent]),
         "fraction");
  m->Add("video_latency_mean_ms", Ratio(d[kFrameLatencySumUs], d[kFrameLatencyCount]) / 1e3,
         "ms");
  m->Add("frame_drop_frac",
         d[kFramesCaptured] > 0 ? 1.0 - Ratio(d[kFramesDisplayed], d[kFramesCaptured]) : 0.0,
         "fraction");
  std::vector<Duration> joins = world.ChurnJoinLatencies();
  std::sort(joins.begin(), joins.end());
  const auto quantile = [&joins](double q) {
    return joins.empty() ? 0.0
                         : static_cast<double>(joins[static_cast<size_t>(
                               q * static_cast<double>(joins.size() - 1))]) / 1e3;
  };
  m->Add("join_p50_ms", quantile(0.5), "ms");
  m->Add("join_p99_ms", quantile(0.99), "ms");
}

double MetricValue(const MetricList& m, const std::string& name) {
  for (const Metric& x : m.items()) {
    if (x.name == name) {
      return x.value;
    }
  }
  return 0.0;
}

void AddRegionChecks(const WorkloadSpec& spec, const Region& r, const MetricList& quality,
                     Checks* checks) {
  const Counters& d = r.delta;
  checks->Expect("region_ran", r.failed == 0 && d[kEvents] > 0,
                 r.error.empty() ? Fmt("%.0f events", d[kEvents]) : r.error);
  if (spec.audio_budget) {
    const double worst = MetricValue(quality, "m2e_max_ms");
    checks->Expect("p7_audio_budget", worst <= kAudioBudgetMs,
                   Fmt("m2e_max_ms %.3f <= %.0f", worst, kAudioBudgetMs));
  }
  if (d[kNetDelivered] > 0) {
    const double copies = Ratio(d[kDeepCopies], d[kNetDelivered]);
    checks->Expect("copies_per_seg", copies <= 2.0, Fmt("%.4f <= 2", copies));
  }
  const std::string name = spec.name;
  if (name == "sharded_chaos") {
    checks->Expect("fault_applied", d[kFaultApplied] > 0, Fmt("%.0f applied", d[kFaultApplied]));
    const double audio = Ratio(d[kVideoBoxAudioDrops], d[kVideoBoxAudioDrops] + d[kVideoBoxAudioSent]);
    const double video = Ratio(d[kVideoBoxVideoDrops], d[kVideoBoxVideoDrops] + d[kVideoBoxVideoSent]);
    checks->Expect("p2_audio_before_video", audio <= video,
                   Fmt("audio drop %.4f <= video drop %.4f", audio, video));
  }
  if (name == "overlay_churn") {
    checks->Expect("churn_applied", d[kOverlayRepairs] > 0,
                   Fmt("%.0f subtree repairs in the region", d[kOverlayRepairs]));
  }
}

// --- Per-layer metrics (traced run) ---------------------------------------------

struct TracedRun {
  Region traced;
  Region plain;   // untraced, same threads
  Region single;  // untraced, 1 thread (sharded worlds only)
  int threads = 1;
  double recorder_events = 0;
  double recorder_dropped = 0;
  pandora::TraceHistogram e2e;  // every mixer's *.e2e.* histogram, merged
};

void MergeHistogram(const pandora::TraceHistogram& h, pandora::TraceHistogram* into) {
  if (h.count == 0) {
    return;
  }
  into->min = into->count == 0 ? h.min : std::min(into->min, h.min);
  into->max = into->count == 0 ? h.max : std::max(into->max, h.max);
  into->count += h.count;
  into->sum += h.sum;
  for (int i = 0; i < pandora::kTraceHistogramBuckets; ++i) {
    into->buckets[static_cast<size_t>(i)] += h.buckets[static_cast<size_t>(i)];
  }
}

void AddLayerMetrics(const WorkloadSpec& spec, const TracedRun& run, const ReplayCosts& rc,
                     const std::vector<SetupTimes>& setups, MetricList* m) {
  const Counters& d = run.traced.delta;
  const bool sharded = spec.sharded;
  m->Add("runtime.events", d[kEvents], "count");
  m->Add("runtime.ns_per_event", Ratio(run.plain.horizon_wall_s * 1e9, d[kEvents]), "ns");
  m->Add("runtime.host_speed", Median(run.traced.host_speed), "ratio");
  m->Add("runtime.batched_share", Ratio(d[kBatchedEvents], d[kEvents]), "fraction");

  m->Add("shard.windows", d[kWindows], "count");
  m->Add("shard.events_per_window", Ratio(d[kEvents], d[kWindows]), "events");
  m->Add("shard.cross_msgs", d[kCrossMsgs], "count");
  m->Add("shard.idle_skips", d[kIdleSkips], "count");
  m->Add("shard.empty_barriers", d[kEmptyBarriers], "count");
  m->Add("shard.parallel_eff",
         sharded ? Ratio(run.single.horizon_wall_s, run.plain.horizon_wall_s * run.threads) : 0.0,
         "fraction");

  m->Add("net.delivered", d[kNetDelivered], "count");
  m->Add("net.lost", d[kNetLost], "count");
  m->Add("net.corrupted", d[kNetCorrupted], "count");
  m->Add("net.bytes_per_seg", Ratio(d[kWireBytes], d[kNetDelivered]), "bytes");

  // Encode/decode costs weighted by the workload's audio/video wire mix.
  const double video_share =
      Ratio(d[kNetoutVideoSent], d[kNetoutAudioSent] + d[kNetoutVideoSent]);
  const auto mix = [video_share](double audio, double video) {
    return (1.0 - video_share) * audio + video_share * video;
  };
  const double encode_ns = mix(rc.encode_audio_ns, rc.encode_video_ns);
  const double decode_ns = mix(rc.decode_audio_ns, rc.decode_video_ns);
  m->Add("segment.copies_per_seg", Ratio(d[kDeepCopies], d[kNetDelivered]), "copies");
  m->Add("segment.decode_failures", d[kDecodeFailures], "count");
  m->Add("segment.encode_ns", encode_ns, "ns");
  m->Add("segment.decode_ns", decode_ns, "ns");
  m->Add("segment.peek_ns", rc.peek_ns, "ns");
  m->Add("segment.split_blocks_ns", rc.split_blocks_ns, "ns");
  m->Add("segment.allocs_per_decode",
         mix(rc.allocs_per_decode_audio, rc.allocs_per_decode_video), "allocs");

  m->Add("server.switched", d[kSwitched], "count");
  m->Add("server.switch_drops", d[kSwitchDrops], "count");
  m->Add("server.sheds", d[kSheds], "count");
  m->Add("server.netout_audio_drops", d[kNetoutAudioDrops], "count");
  m->Add("server.netout_video_drops", d[kNetoutVideoDrops], "count");
  m->Add("server.netout_max_depth", d[kNetoutMaxDepth], "segments");

  m->Add("buffer.pool_allocs", d[kPoolAllocs], "count");
  m->Add("buffer.pool_starvations", d[kPoolStarvations], "count");
  m->Add("buffer.pool_min_free", std::isfinite(d[kPoolMinFree]) ? d[kPoolMinFree] : 0.0,
         "buffers");
  m->Add("buffer.clawback_activations", d[kClawbackActivations], "count");
  m->Add("buffer.clawback_drops", d[kClawbackDrops], "count");
  m->Add("buffer.clawback_push_ns", rc.clawback_push_ns, "ns");
  m->Add("buffer.clawback_pop_ns", rc.clawback_pop_ns, "ns");
  m->Add("buffer.active_streams_allocs", rc.active_streams_allocs, "allocs");

  m->Add("audio.mixer_ticks", d[kMixerTicks], "count");
  m->Add("audio.late_ticks", d[kLateTicks], "count");
  m->Add("audio.replays", d[kReplays], "count");
  m->Add("audio.silences", d[kSilences], "count");
  m->Add("audio.blocks_rejected", d[kBlocksRejected], "count");
  m->Add("audio.mix_ns_per_stream", rc.mix_ns_per_stream, "ns");
  m->Add("audio.m2e_p50_ms",
         static_cast<double>(pandora::TraceHistogramQuantile(run.e2e, 0.5)) / 1e3, "ms");
  m->Add("audio.m2e_p99_ms",
         static_cast<double>(pandora::TraceHistogramQuantile(run.e2e, 0.99)) / 1e3, "ms");

  m->Add("video.frames_captured", d[kFramesCaptured], "count");
  m->Add("video.frames_displayed", d[kFramesDisplayed], "count");
  m->Add("video.cache_reloads", d[kCacheReloads], "count");
  m->Add("video.tears", d[kTears], "count");
  m->Add("video.compress_line_ns", rc.compress_line_ns, "ns");
  m->Add("video.decompress_line_ns", rc.decompress_line_ns, "ns");
  m->Add("video.allocs_per_line", rc.allocs_per_line, "allocs");

  m->Add("repository.recorded", d[kRecorded], "count");
  m->Add("repository.discarded", d[kDiscarded], "count");

  m->Add("fault.applied", d[kFaultApplied], "count");
  m->Add("fault.skipped", d[kFaultSkipped], "count");
  m->Add("fault.restored", d[kFaultRestored], "count");

  m->Add("overlay.emitted", d[kOverlayEmitted], "count");
  m->Add("overlay.delivered", d[kOverlayDelivered], "count");
  m->Add("overlay.repairs", d[kOverlayRepairs], "count");
  m->Add("overlay.departures", d[kOverlayDepartures], "count");
  m->Add("overlay.rejoins", d[kOverlayRejoins], "count");

  std::vector<double> build;
  std::vector<double> plumb;
  std::vector<double> warmup;
  for (const SetupTimes& t : setups) {
    build.push_back(t.build_s * 1e3);
    plumb.push_back(t.plumb_s * 1e3);
    warmup.push_back(t.warmup_s * 1e3);
  }
  m->Add("core.build_ms", Median(build), "ms");
  m->Add("core.plumb_ms", Median(plumb), "ms");
  m->Add("core.warmup_ms", Median(warmup), "ms");

  m->Add("trace.overhead", Ratio(run.traced.horizon_wall_s, run.plain.horizon_wall_s), "ratio");
  m->Add("trace.events", run.recorder_events, "count");
  m->Add("trace.dropped", run.recorder_dropped, "count");

  // Estimated host-time shares: replayed ns/op times the ops the world
  // counted, over the untraced single-thread wall time of the horizon.
  const double base_ns = (sharded ? run.single.horizon_wall_s : run.plain.horizon_wall_s) * 1e9;
  const double decodes = d[kNetinReceived];
  const double encodes = std::max(0.0, d[kDeepCopies] - decodes);
  const double segment_ns = encodes * encode_ns + decodes * decode_ns +
                            (d[kNetDelivered] + d[kNetLost]) * rc.peek_ns +
                            d[kAudioSegmentsReceived] * rc.split_blocks_ns;
  const double buffer_ns = d[kClawbackPushes] * rc.clawback_push_ns +
                           d[kClawbackPops] * rc.clawback_pop_ns +
                           d[kMixerTicks] * rc.active_streams_ns;
  const double audio_ns = d[kBlocksMixed] * rc.mix_ns_per_stream + d[kMixerTicks] * rc.mix_tick_ns;
  constexpr double kLinesPerSegment = 24.0;  // 64x48 frames, 2 segments each
  const double video_ns = (d[kVideoSegmentsSent] * rc.compress_line_ns +
                           d[kVideoSegmentsReceived] * rc.decompress_line_ns) *
                          kLinesPerSegment;
  m->Add("segment.est_share", Ratio(segment_ns, base_ns), "fraction");
  m->Add("buffer.est_share", Ratio(buffer_ns, base_ns), "fraction");
  m->Add("audio.est_share", Ratio(audio_ns, base_ns), "fraction");
  m->Add("video.est_share", Ratio(video_ns, base_ns), "fraction");
  m->Add("runtime.residual_share",
         1.0 - Ratio(segment_ns + buffer_ns + audio_ns + video_ns, base_ns), "fraction");
}

void PrintResult(bool correct, int attempted, int failed, const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.Json().c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = FindWorkload(args.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "worldbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = spec.sharded ? std::min(4, hw) : 1;
  const int setup_threads = !args.trace && spec.measure_one_thread ? 1 : threads;
  const Duration horizon = HorizonFor(spec, args.seconds);

  HostProbeNs();  // builds the probe's tables outside every counted region
  CpuSteering steering;
  if (setup_threads == 1) {
    steering.Enable();
    g_steering = &steering;
  }
  SpanRecorder spans;
  const std::string run_id = std::string(spec.name) + "-seed" + std::to_string(args.seed) +
                             "-pid" + std::to_string(getpid());
  if (args.trace) {
    spans.Enable(run_id, 1 << 16);
  }
  SpanRecorder* span_ptr = args.trace ? &spans : nullptr;

  std::printf("{\"fingerprint\": %s}\n", MachineFingerprintJson().c_str());
  std::printf("workload %s  seed %llu  threads %d  horizon %.3f sim-s  trace %d\n", spec.name,
              static_cast<unsigned long long>(args.seed), setup_threads,
              static_cast<double>(horizon) / 1e6, args.trace ? 1 : 0);

  WorldOptions options;
  options.seed = args.seed;
  options.threads = setup_threads;
  options.horizon = horizon;
  options.spans = span_ptr;
  SetupResult setup = SetUp(spec, options, kSetups);

  Checks checks;
  bool repeat_ok = true;
  for (uint64_t d : setup.warm_digests) {
    repeat_ok = repeat_ok && d == setup.warm_digests[0];
  }
  checks.Expect("repeat_warmup_digest", repeat_ok,
                Fmt("%.0f setups agree", static_cast<double>(setup.warm_digests.size())));

  MetricList quality;
  MetricList out;
  Region main_region;
  if (!args.trace) {
    main_region = Measure(*setup.world, spec, horizon, nullptr, args.seconds);
    AddQualityMetrics(main_region, *setup.world, &quality);
    setup.world.reset();
    std::vector<double> totals;
    for (size_t k = 0; k < setup.times.size(); ++k) {
      totals.push_back(setup.times[k].total() * setup.host_speed[k]);
    }
    std::vector<double> raw = main_region.slice_rates;
    std::sort(raw.begin(), raw.end());
    const auto pct = [&raw](double q) {
      return raw[static_cast<size_t>(q * static_cast<double>(raw.size() - 1))];
    };
    std::printf("unscaled sim-s/s over %zu slices: p10 %.4f  p50 %.4f  p90 %.4f; host speed p50 %.4f\n",
                raw.size(), pct(0.10), pct(0.5), pct(0.90), Median(main_region.host_speed));
    out.Add("sim_rate", Median(main_region.ScaledRates()), "sim-s/s");
    out.Add("setup_s", Median(totals), "s");
    out.Add("peak_rss_mb", main_region.peak_rss_mb, "MB");
  } else {
    TracedRun run;
    run.threads = threads;
    setup.world->EnableRecorders(1 << 14);
    run.traced = Measure(*setup.world, spec, horizon, span_ptr, 0.0);
    main_region = run.traced;
    AddQualityMetrics(run.traced, *setup.world, &quality);
    pandora::ShardSet& set = setup.world->shard_set();
    for (int s = 0; s < set.shard_count(); ++s) {
      const pandora::TraceRecorder& rec = *set.shard(s).trace();
      run.recorder_events += static_cast<double>(rec.event_count());
      run.recorder_dropped += static_cast<double>(rec.dropped_events());
      for (const pandora::TraceHistogram& h : rec.histograms()) {
        if (h.name.find(".e2e.") != std::string::npos) {
          MergeHistogram(h, &run.e2e);
        }
      }
    }
    setup.world.reset();

    SetupResult again = SetUp(spec, options, 1);
    run.plain = Measure(*again.world, spec, horizon, span_ptr, 0.0);
    again.world.reset();
    checks.Expect("trace_invariant_digest", run.plain.digest == run.traced.digest,
                  "traced and untraced horizons agree");
    run.single = run.plain;
    if (spec.sharded) {
      WorldOptions one = options;
      one.threads = 1;
      SetupResult sequential = SetUp(spec, one, 1);
      run.single = Measure(*sequential.world, spec, horizon, span_ptr, 0.0);
      sequential.world.reset();
      checks.Expect("thread_invariant_digest", run.single.digest == run.plain.digest,
                    Fmt("1 thread vs %.0f threads agree", threads));
    }
    const double streams =
        std::round(Ratio(run.traced.delta[kBlocksMixed], run.traced.delta[kMixerTicks]));
    const ReplayCosts rc = RunReplay(static_cast<int>(std::max(1.0, streams)), span_ptr);
    AddLayerMetrics(spec, run, rc, setup.times, &out);
    for (const Metric& q : quality.items()) {
      out.Add(q.name, q.value, q.unit);
    }
    const std::string other = "{\"run_id\": \"" + JsonEscape(run_id) +
                              "\", \"fingerprint\": " + MachineFingerprintJson() + "}";
    const bool wrote = spans.WriteChromeJson(args.trace_out, other);
    checks.Expect("span_file", wrote,
                  Fmt("%.0f spans written", static_cast<double>(spans.span_count())));
  }
  AddRegionChecks(spec, main_region, quality, &checks);

  std::printf("simulated quality over the %.3f sim-s horizon:\n%s",
              static_cast<double>(horizon) / 1e6, quality.Table().c_str());
  std::printf("{\"report\": %s}\n", quality.Json().c_str());
  std::printf("%s metrics:\n%s", args.trace ? "per-layer" : "end-to-end", out.Table().c_str());
  checks.Expect("finite_metrics", out.AllFinite() && quality.AllFinite(), "no NaN or inf");
  checks.Print();
  const bool correct = checks.all_ok();
  PrintResult(correct, std::max(1, main_region.slices), main_region.failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace worldbench

int main(int argc, char** argv) {
  worldbench::Args args;
  if (!worldbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: worldbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }
  return worldbench::Run(args);
}
