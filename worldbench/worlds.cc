#include "worlds.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/core/simulation.h"
#include "src/fault/driver.h"
#include "src/fault/plan.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"

namespace worldbench {

using pandora::CallPath;
using pandora::Duration;
using pandora::Millis;
using pandora::PandoraBox;
using pandora::Seconds;
using pandora::ShardSet;
using pandora::Simulation;
using pandora::SimulationOptions;

Counters RegionDelta(const Counters& start, const Counters& end) {
  Counters d{};
  for (int i = 0; i < kFieldCount; ++i) {
    d[static_cast<size_t>(i)] =
        i < kFirstGauge ? end[static_cast<size_t>(i)] - start[static_cast<size_t>(i)]
                        : end[static_cast<size_t>(i)];
  }
  return d;
}

uint64_t DigestCounters(const Counters& c, uint64_t seed_hash) {
  uint64_t hash = seed_hash;
  for (double v : c) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = pandora::FnvMix(hash, bits);
  }
  return hash;
}

void World::EnableRecorders(size_t events_per_shard) { shard_set().EnableTrace(events_per_shard); }

namespace {

double SecondsSince(int64_t start_ns) { return static_cast<double>(WallNs() - start_ns) / 1e9; }

int WorldShards(const WorkloadSpec& spec) { return spec.sharded ? 4 : 1; }

// --- Box worlds ---------------------------------------------------------------

// The box-level totals: every field from kDeepCopies up to the fault fields.
constexpr size_t kFirstBoxField = kDeepCopies;
constexpr size_t kEndBoxField = kFaultApplied;

// Running totals of one box.  A crash destroys the box's boards and with
// them every counter; the tally notices the changed crash count and folds
// the last pre-crash sample into `base`, so totals stay monotone.
struct BoxTally {
  Counters base{};
  Counters prev{};
  uint64_t crashes = 0;
  double m2e_max_us = 0.0;
  double depth_max = 0.0;
  double min_free = std::numeric_limits<double>::infinity();
};

// Reads one live box's counters into the box-level fields of `raw`.
void ReadBox(PandoraBox& box, bool sources_video, size_t cameras, Counters* raw) {
  Counters& r = *raw;
  r[kDeepCopies] = static_cast<double>(box.deep_copies());
  r[kNetinReceived] = static_cast<double>(box.network_input().received());
  r[kDecodeFailures] = static_cast<double>(box.network_input().decode_failures());
  pandora::Switch& sw = box.server_switch();
  r[kSwitched] = static_cast<double>(sw.segments_switched());
  r[kSwitchDrops] = static_cast<double>(sw.segments_dropped());
  r[kSheds] = static_cast<double>(sw.sheds_incoming() + sw.sheds_outgoing());
  pandora::NetworkOutput& out = box.network_output();
  r[kNetoutAudioDrops] = static_cast<double>(out.audio_drops());
  r[kNetoutVideoDrops] = static_cast<double>(out.video_drops());
  r[kNetoutAudioSent] = static_cast<double>(out.audio_sent());
  r[kNetoutVideoSent] = static_cast<double>(out.video_sent());
  if (sources_video) {
    r[kVideoBoxAudioDrops] = r[kNetoutAudioDrops];
    r[kVideoBoxAudioSent] = r[kNetoutAudioSent];
    r[kVideoBoxVideoDrops] = r[kNetoutVideoDrops];
    r[kVideoBoxVideoSent] = r[kNetoutVideoSent];
  }
  r[kPoolAllocs] = static_cast<double>(box.pool().allocations());
  r[kPoolStarvations] = static_cast<double>(box.pool().starvation_events());
  pandora::ClawbackBank& bank = box.clawback_bank();
  const pandora::ClawbackBuffer::Stats claw = bank.TotalStats();
  r[kClawbackActivations] = static_cast<double>(bank.activations());
  r[kClawbackDrops] = static_cast<double>(claw.clawback_drops);
  r[kClawbackPushes] = static_cast<double>(claw.pushes);
  r[kClawbackPops] = static_cast<double>(claw.pops);
  pandora::AudioMixer& mixer = box.mixer();
  r[kMixerTicks] = static_cast<double>(mixer.ticks());
  r[kLateTicks] = static_cast<double>(mixer.late_ticks());
  r[kReplays] = static_cast<double>(mixer.replays());
  r[kSilences] = static_cast<double>(mixer.silences());
  r[kBlocksMixed] = static_cast<double>(mixer.blocks_mixed());
  r[kM2eSumUs] = mixer.all_latency().sum();
  r[kM2eCount] = static_cast<double>(mixer.all_latency().count());
  pandora::AudioReceiver& rx = box.audio_receiver();
  r[kBlocksRejected] = static_cast<double>(rx.blocks_rejected());
  r[kAudioSegmentsReceived] = static_cast<double>(rx.segments_received());
  r[kAudioMissing] = static_cast<double>(rx.total_missing());
  for (size_t i = 0; i < cameras; ++i) {
    const pandora::VideoCapture* capture = box.capture(i);
    r[kFramesCaptured] += static_cast<double>(capture->frames_captured());
    r[kVideoSegmentsSent] += static_cast<double>(capture->segments_sent());
  }
  if (const pandora::VideoDisplay* display = box.display(); display != nullptr) {
    r[kFramesDisplayed] = static_cast<double>(display->frames_displayed());
    r[kVideoSegmentsReceived] = static_cast<double>(display->segments_received());
    r[kUndecodable] = static_cast<double>(display->undecodable_segments());
    r[kCacheReloads] = static_cast<double>(display->cache_reloads());
    r[kTears] = static_cast<double>(display->tears());
    r[kFrameLatencySumUs] = display->frame_latency().sum();
    r[kFrameLatencyCount] = static_cast<double>(display->frame_latency().count());
  }
  if (const pandora::Repository* repo = box.repository(); repo != nullptr) {
    r[kRecorded] = static_cast<double>(repo->segments_recorded());
    r[kDiscarded] = static_cast<double>(repo->segments_discarded());
  }
}

// A Simulation-built world.  Subclasses choose the boxes and the plumbing.
class BoxWorld : public World {
 public:
  BoxWorld(const WorkloadSpec& spec, const WorldOptions& options)
      : spec_(spec), options_(options) {}

  SetupTimes Setup() override {
    SpanRecorder* spans = options_.spans;
    SetupTimes times;
    int64_t t0 = WallNs();
    {
      ScopedSpan span(spans, "core.build");
      SimulationOptions sim_options;
      sim_options.seed = options_.seed;
      sim_options.shards = WorldShards(spec_);
      sim_options.threads = options_.threads;
      sim_ = std::make_unique<Simulation>(sim_options);
      const std::vector<PandoraBox::Options> boxes = BoxOptions();
      for (size_t i = 0; i < boxes.size(); ++i) {
        ScopedSpan add(spans, "core.AddBox", static_cast<int64_t>(i));
        boxes_.push_back(&sim_->AddBox(boxes[i]));
      }
      ScopedSpan start(spans, "core.Start");
      sim_->Start();
    }
    times.build_s = SecondsSince(t0);
    t0 = WallNs();
    {
      ScopedSpan span(spans, "core.plumb");
      Plumb();
      sources_video_.assign(boxes_.size(), false);
      for (const Simulation::CallRecord& call : sim_->calls()) {
        if (call.kind == Simulation::CallRecord::Kind::kVideo) {
          sources_video_[IndexOf(call.src)] = true;
        }
      }
      tallies_.assign(boxes_.size(), BoxTally{});
    }
    {
      ScopedSpan span(spans, "fault.install");
      InstallFaults();
    }
    times.plumb_s = SecondsSince(t0);
    t0 = WallNs();
    {
      ScopedSpan span(spans, "core.warmup");
      sim_->RunFor(spec_.warmup);
    }
    times.warmup_s = SecondsSince(t0);
    return times;
  }

  ShardSet& shard_set() override { return sim_->shard_set(); }

  void Sample(Counters* out) override {
    Counters& c = *out;
    c.fill(0.0);
    ShardSet& set = sim_->shard_set();
    for (int s = 0; s < set.shard_count(); ++s) {
      c[kEvents] += static_cast<double>(set.shard(s).events());
      c[kContextSwitches] += static_cast<double>(set.shard(s).context_switches());
      c[kBatchedEvents] +=
          static_cast<double>(set.shard(s).events() - set.shard(s).context_switches());
    }
    c[kWindows] = static_cast<double>(set.windows());
    c[kCrossMsgs] = static_cast<double>(set.cross_shard_messages());
    c[kIdleSkips] = static_cast<double>(set.idle_shard_skips());
    c[kEmptyBarriers] = static_cast<double>(set.empty_mailbox_barriers());
    pandora::AtmNetwork& net = sim_->network();
    c[kNetDelivered] = static_cast<double>(net.total_delivered());
    c[kNetLost] = static_cast<double>(net.total_lost());
    c[kNetCorrupted] = static_cast<double>(net.total_corrupted());
    c[kWireBytes] = static_cast<double>(net.bytes_on_wire());
    if (driver_ != nullptr) {
      c[kFaultApplied] = static_cast<double>(driver_->applied());
      c[kFaultSkipped] = static_cast<double>(driver_->skipped());
      c[kFaultRestored] = static_cast<double>(driver_->restored());
    }
    c[kM2eMaxUs] = 0.0;
    c[kNetoutMaxDepth] = 0.0;
    c[kPoolMinFree] = std::numeric_limits<double>::infinity();
    for (size_t b = 0; b < boxes_.size(); ++b) {
      PandoraBox& box = *boxes_[b];
      BoxTally& tally = tallies_[b];
      if (!box.crashed()) {
        if (box.crash_count() != tally.crashes) {
          for (size_t f = kFirstBoxField; f < kEndBoxField; ++f) {
            tally.base[f] += tally.prev[f];
          }
          tally.crashes = box.crash_count();
        }
        tally.prev.fill(0.0);
        ReadBox(box, sources_video_[b], CamerasOf(&box), &tally.prev);
        tally.m2e_max_us = std::max(tally.m2e_max_us, box.mixer().all_latency().max());
        tally.depth_max = std::max(
            {tally.depth_max,
             static_cast<double>(box.network_output().audio_buffer().max_depth_seen()),
             static_cast<double>(box.network_output().video_buffer().max_depth_seen())});
        tally.min_free =
            std::min(tally.min_free, static_cast<double>(box.pool().min_free_seen()));
      }
      for (size_t f = kFirstBoxField; f < kEndBoxField; ++f) {
        c[f] += tally.base[f] + tally.prev[f];
      }
      c[kM2eMaxUs] = std::max(c[kM2eMaxUs], tally.m2e_max_us);
      c[kNetoutMaxDepth] = std::max(c[kNetoutMaxDepth], tally.depth_max);
      c[kPoolMinFree] = std::min(c[kPoolMinFree], tally.min_free);
    }
  }

 protected:
  virtual std::vector<PandoraBox::Options> BoxOptions() = 0;
  virtual void Plumb() = 0;
  virtual void InstallFaults() {}

  PandoraBox& box(size_t i) { return *boxes_.at(i); }
  SpanRecorder* spans() { return options_.spans; }

  // Host plumbing wrapped in spans.
  pandora::StreamId SendAudio(size_t src, size_t dst, const CallPath& path) {
    ScopedSpan span(spans(), "core.SendAudio", static_cast<int64_t>(src));
    return sim_->SendAudio(box(src), box(dst), path);
  }
  pandora::StreamId SplitAudio(size_t src, size_t dst, const CallPath& path) {
    ScopedSpan span(spans(), "core.SplitAudioTo", static_cast<int64_t>(src));
    return sim_->SplitAudioTo(box(src), box(src).mic_stream(), box(dst), path);
  }
  pandora::StreamId SendVideo(size_t src, size_t dst, const CallPath& path) {
    ScopedSpan span(spans(), "core.SendVideo", static_cast<int64_t>(src));
    return sim_->SendVideo(box(src), box(dst), pandora::Rect{0, 0, 64, 48}, 1, 1,
                           /*segments_per_frame=*/2, path);
  }

  const WorkloadSpec& spec_;
  WorldOptions options_;
  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<pandora::FaultDriver> driver_;

 private:
  size_t IndexOf(const PandoraBox* b) const {
    return static_cast<size_t>(std::find(boxes_.begin(), boxes_.end(), b) - boxes_.begin());
  }
  // Cameras currently capturing on `b`: one per video leg it sources, except
  // legs whose source rebooted while the peer was down (not re-added yet).
  size_t CamerasOf(const PandoraBox* b) const {
    size_t n = 0;
    for (const Simulation::CallRecord& call : sim_->calls()) {
      n += call.kind == Simulation::CallRecord::Kind::kVideo && call.src == b && call.active &&
           !call.src_down;
    }
    return n;
  }

  std::vector<PandoraBox*> boxes_;
  std::vector<bool> sources_video_;
  std::vector<BoxTally> tallies_;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return pandora::FnvMix(pandora::FnvMix(pandora::kFnvOffset, seed), salt);
}

// 16 audio-only boxes in a ring on one shard.  Each box calls both ring
// neighbours and box 0's microphone doubles as a tannoy split to every box;
// WAN legs jitter, so clawback buffers grow and claw back.
class AudioMeshWorld : public BoxWorld {
 public:
  using BoxWorld::BoxWorld;

 protected:
  static constexpr size_t kBoxes = 16;

  std::vector<PandoraBox::Options> BoxOptions() override {
    std::vector<PandoraBox::Options> out;
    for (size_t i = 0; i < kBoxes; ++i) {
      PandoraBox::Options o;
      o.name = "mesh" + std::to_string(i);
      o.with_video = false;
      o.mic_frequency = 300.0 + 37.0 * static_cast<double>((Mix(options_.seed, i) % 16));
      o.clawback.count_threshold = 1024;  // claw back every ~2 s above target
      out.push_back(o);
    }
    return out;
  }

  void Plumb() override {
    CallPath wan;
    wan.direct.propagation = Millis(2);
    wan.direct.jitter_max = Millis(6);
    for (size_t i = 0; i < kBoxes; ++i) {
      SendAudio(i, (i + 1) % kBoxes, wan);
      SplitAudio(i, (i + kBoxes - 1) % kBoxes, wan);
    }
    for (size_t j = 2; j + 1 < kBoxes; ++j) {
      SplitAudio(0, j, wan);  // the tannoy
    }
  }
};

// Four independent three-party A/V conferences: a full audio mesh of
// splits, 64x48 25 fps video both ways on every pair, speech microphones
// with muting, and one box per conference recording an incoming stream.
class AvConferenceWorld : public BoxWorld {
 public:
  using BoxWorld::BoxWorld;

 protected:
  static constexpr size_t kConferences = 4;

  std::vector<PandoraBox::Options> BoxOptions() override {
    std::vector<PandoraBox::Options> out;
    for (size_t i = 0; i < kConferences * 3; ++i) {
      PandoraBox::Options o;
      o.name = "conf" + std::to_string(i / 3) + "." + std::to_string(i % 3);
      o.mic = pandora::MicKind::kSpeech;
      o.mic_frequency = 180.0 + 23.0 * static_cast<double>((Mix(options_.seed, i) % 16));
      o.muting_enabled = true;
      o.with_video = true;
      o.with_repository = i % 3 == 0;
      out.push_back(o);
    }
    return out;
  }

  void Plumb() override {
    CallPath lan;
    lan.direct.propagation = pandora::Micros(500);
    lan.direct.jitter_max = Millis(1);
    for (size_t c = 0; c < kConferences; ++c) {
      const size_t a = 3 * c;
      pandora::StreamId recorded = pandora::kInvalidStream;
      for (size_t k = 0; k < 3; ++k) {
        const size_t src = a + k;
        const size_t next = a + (k + 1) % 3;
        const size_t prev = a + (k + 2) % 3;
        const pandora::StreamId at_next = SendAudio(src, next, lan);
        SplitAudio(src, prev, lan);
        if (next == a) {
          recorded = at_next;
        }
        SendVideo(src, next, lan);
        SendVideo(src, prev, lan);
      }
      ScopedSpan span(spans(), "core.RecordStream", static_cast<int64_t>(a));
      sim_->RecordStream(box(a), recorded, /*audio=*/true);
    }
  }
};

// 32 boxes pinned round-robin over 4 shards: a ring of audio calls (every
// leg crosses shards), a quarter of them with video, video sources on a
// squeezed uplink, and a seeded RandomFaultPlan across the measured region.
class ShardedChaosWorld : public BoxWorld {
 public:
  using BoxWorld::BoxWorld;

 protected:
  static constexpr size_t kBoxes = 32;

  static bool SourcesVideo(size_t i) { return i % 4 == 0; }
  static bool ShowsVideo(size_t i) { return i % 4 == 1; }

  std::vector<PandoraBox::Options> BoxOptions() override {
    std::vector<PandoraBox::Options> out;
    for (size_t i = 0; i < kBoxes; ++i) {
      PandoraBox::Options o;
      o.name = "chaos" + std::to_string(i);
      o.shard = static_cast<int>(i % 4);
      o.with_video = SourcesVideo(i) || ShowsVideo(i);
      o.mic_frequency = 300.0 + 29.0 * static_cast<double>((Mix(options_.seed, i) % 16));
      o.clawback.count_threshold = 512;
      if (SourcesVideo(i)) {
        // One 64x48 video leg plus two audio legs into 800 kbit/s: the
        // interface sheds video and keeps audio (P2) from the start.
        o.network_egress_bps = 800'000;
      }
      out.push_back(o);
    }
    return out;
  }

  void Plumb() override {
    CallPath wan;
    wan.direct.propagation = Millis(1);  // == the ShardSet lookahead floor
    wan.direct.jitter_max = Millis(2);
    for (size_t i = 0; i < kBoxes; ++i) {
      SendAudio(i, (i + 1) % kBoxes, wan);
      if (SourcesVideo(i)) {
        SendVideo(i, i + 1, wan);
      }
      SplitAudio(i, (i + kBoxes - 1) % kBoxes, wan);
    }
  }

  void InstallFaults() override {
    pandora::RandomPlanOptions plan;
    plan.start = spec_.warmup + Millis(100);
    plan.horizon = spec_.warmup + options_.horizon * 7 / 10;
    plan.min_events = 8;
    plan.max_events = 14;
    plan.call_count = static_cast<int>(sim_->calls().size());
    plan.box_count = static_cast<int>(kBoxes);
    plan.min_episode = Millis(100);
    plan.max_episode = Millis(600);
    driver_ = std::make_unique<pandora::FaultDriver>(
        sim_.get(), pandora::RandomFaultPlan(Mix(options_.seed, 0xC4A05), plan));
    driver_->Start();
  }
};

// --- Overlay world --------------------------------------------------------------

constexpr int kOverlayReceivers = 10'000;
constexpr uint64_t kOverlayTopologySeed = 1993;

// ShardedOverlayMulticast over 10^4 receivers, k = 2 stripes, 4 shards,
// under a seeded churn storm across the measured region.
class OverlayChurnWorld : public World {
 public:
  OverlayChurnWorld(const WorkloadSpec& spec, const WorldOptions& options)
      : spec_(spec), options_(options) {}

  SetupTimes Setup() override {
    SpanRecorder* spans = options_.spans;
    SetupTimes times;
    int64_t t0 = WallNs();
    {
      ScopedSpan span(spans, "core.build");
      // One fixed population for every seed: the seed drives the churn
      // storm and the loss draws, so the work per simulated second (which
      // depends on the trees' shape) stays comparable across seeds.
      pandora::TopologyParams params;
      params.seed = kOverlayTopologySeed;
      params.receivers = kOverlayReceivers;
      {
        ScopedSpan s(spans, "overlay.GenerateTopology");
        topology_ = pandora::GenerateTopology(params);
      }
      {
        ScopedSpan s(spans, "overlay.TreeBuilder");
        trees_ = pandora::TreeBuilder::Build(topology_, 2, pandora::TreePolicy::kBalancedFanout);
      }
      pandora::ShardSetOptions shard_options;
      shard_options.shards = WorldShards(spec_);
      shard_options.threads = options_.threads;
      shard_options.lookahead = Millis(1);  // == the fastest access-link latency
      set_ = std::make_unique<ShardSet>(shard_options);
      multicast_ = std::make_unique<pandora::ShardedOverlayMulticast>(
          set_.get(), &topology_, &trees_, pandora::MulticastParams{}, Mix(options_.seed, 0x1055));
    }
    times.build_s = SecondsSince(t0);
    t0 = WallNs();
    {
      ScopedSpan span(spans, "core.plumb");
      multicast_->Start(/*emit_until=*/Seconds(1'000'000));
    }
    {
      ScopedSpan span(spans, "fault.install");
      pandora::ChurnStormOptions storm;
      storm.start = spec_.warmup + Millis(100);
      storm.horizon = spec_.warmup + options_.horizon * 7 / 10;
      storm.receiver_count = kOverlayReceivers;
      storm.min_events = 96;
      storm.max_events = 128;
      storm.permanent_fraction = 0.05;
      churn_ = std::make_unique<pandora::ShardedOverlayChurnDriver>(
          set_.get(), multicast_.get(),
          pandora::RandomChurnPlan(Mix(options_.seed, 0xC7A1), storm));
      churn_->Start();
    }
    times.plumb_s = SecondsSince(t0);
    t0 = WallNs();
    {
      ScopedSpan span(spans, "core.warmup");
      set_->RunUntil(spec_.warmup);
    }
    times.warmup_s = SecondsSince(t0);
    joins_at_warmup_ = multicast_->JoinLatencies().size();
    return times;
  }

  ShardSet& shard_set() override { return *set_; }

  void Sample(Counters* out) override {
    Counters& c = *out;
    c.fill(0.0);
    for (int s = 0; s < set_->shard_count(); ++s) {
      c[kEvents] += static_cast<double>(set_->shard(s).events());
      c[kContextSwitches] += static_cast<double>(set_->shard(s).context_switches());
      c[kBatchedEvents] +=
          static_cast<double>(set_->shard(s).events() - set_->shard(s).context_switches());
    }
    c[kWindows] = static_cast<double>(set_->windows());
    c[kCrossMsgs] = static_cast<double>(set_->cross_shard_messages());
    c[kIdleSkips] = static_cast<double>(set_->idle_shard_skips());
    c[kEmptyBarriers] = static_cast<double>(set_->empty_mailbox_barriers());
    c[kOverlayEmitted] = static_cast<double>(multicast_->emitted());
    int64_t delivered = 0;
    for (int r = 0; r < kOverlayReceivers; ++r) {
      delivered += multicast_->stats(r).delivered;
    }
    c[kOverlayDelivered] = static_cast<double>(delivered);
    // The data plane runs on timer callbacks, which Scheduler::events() does
    // not count: count each delivery (one callback on the child's shard).
    c[kEvents] += c[kOverlayDelivered];
    c[kOverlayRepairs] = static_cast<double>(multicast_->repairs());
    c[kOverlayDepartures] = static_cast<double>(churn_->departures());
    c[kOverlayRejoins] = static_cast<double>(churn_->rejoins());
    c[kPoolMinFree] = 0.0;
  }

  uint64_t ExtraDigest() const override { return multicast_->RunHash(); }

  std::vector<Duration> ChurnJoinLatencies() const override {
    std::vector<Duration> joins = multicast_->JoinLatencies();
    joins.erase(joins.begin(),
                joins.begin() + static_cast<std::ptrdiff_t>(std::min(joins_at_warmup_, joins.size())));
    return joins;
  }

 private:
  const WorkloadSpec& spec_;
  WorldOptions options_;
  pandora::OverlayTopology topology_;
  pandora::StripedTrees trees_;
  std::unique_ptr<ShardSet> set_;
  std::unique_ptr<pandora::ShardedOverlayMulticast> multicast_;
  std::unique_ptr<pandora::ShardedOverlayChurnDriver> churn_;
  size_t joins_at_warmup_ = 0;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Why each workload exists: worldbench/METHOD.md and BENCHMARK.json.
  static const std::vector<WorkloadSpec> kSpecs = {
      {"audio_mesh", false, Seconds(2), Millis(250), 25.0, true, false},
      {"av_conference", false, Seconds(2), Millis(200), 19.0, true, false},
      {"sharded_chaos", true, Seconds(2), Millis(200), 9.5, false, false},
      {"overlay_churn", true, Seconds(1), Millis(100), 1.5, false, true},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Duration HorizonFor(const WorkloadSpec& spec, double seconds) {
  constexpr double kMeasuredShare = 0.5;  // of the wall budget, at the nominal rate
  const double sim_s = seconds * kMeasuredShare * spec.nominal_sim_rate;
  const int64_t slices =
      std::max<int64_t>(4, static_cast<int64_t>(std::floor(sim_s * 1e6 /
                                                           static_cast<double>(spec.slice))));
  return slices * spec.slice;
}

std::unique_ptr<World> MakeWorld(const WorkloadSpec& spec, const WorldOptions& options) {
  const std::string name = spec.name;
  if (name == "audio_mesh") {
    return std::make_unique<AudioMeshWorld>(spec, options);
  }
  if (name == "av_conference") {
    return std::make_unique<AvConferenceWorld>(spec, options);
  }
  if (name == "sharded_chaos") {
    return std::make_unique<ShardedChaosWorld>(spec, options);
  }
  return std::make_unique<OverlayChurnWorld>(spec, options);
}

}  // namespace worldbench
