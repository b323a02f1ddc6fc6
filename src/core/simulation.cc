#include "src/core/simulation.h"

#include "src/runtime/check.h"

namespace pandora {
namespace {

ShardSetOptions ToShardSetOptions(const SimulationOptions& options) {
  ShardSetOptions shard_options;
  shard_options.shards = options.shards;
  shard_options.threads = options.threads;
  shard_options.lookahead = options.lookahead;
  return shard_options;
}

}  // namespace

Simulation::Simulation(uint64_t seed) : Simulation(SimulationOptions{.seed = seed}) {}

Simulation::Simulation(const SimulationOptions& options)
    : shards_(ToShardSetOptions(options)),
      reports_(),
      net_(&shards_, options.seed),
      placement_rng_(options.seed ^ 0x9e3779b97f4a7c15ull) {
  // One collector per shard, each bound to its shard's recorder: the control
  // plane's reports land on the same timeline as the telemetry recorded by
  // the runtime/buffers/network of that shard, and a collector is only ever
  // written by its own shard's worker (or the coordinator at a barrier).
  reports_.reserve(static_cast<size_t>(shards_.shard_count()));
  for (int s = 0; s < shards_.shard_count(); ++s) {
    reports_.push_back(std::make_unique<ReportCollector>());
    reports_.back()->BindTrace(shards_.shard(s).trace());
  }
}

Simulation::~Simulation() {
  // Destroy every coroutine frame before the boxes (whose pools and
  // channels the frames reference) go away.
  shards_.Shutdown();
}

PandoraBox& Simulation::AddBox(PandoraBox::Options options) {
  if (options.mic_stream == kInvalidStream) {
    options.mic_stream = AllocateStream();
  }
  // Resolve placement: a pinned shard must exist; -1 draws from the seeded
  // placement stream (uniform over shards) so un-pinned worlds spread out
  // deterministically per seed, and shard_count()==1 stays on the fast path
  // without consuming a draw.
  if (options.shard < 0) {
    options.shard = shards_.shard_count() > 1
                        ? static_cast<int>(placement_rng_.UniformInt(0, shards_.shard_count() - 1))
                        : 0;
  }
  PANDORA_CHECK(options.shard < shards_.shard_count(),
                "PandoraBox::Options::shard out of range for this Simulation's ShardSet");
  const int shard = options.shard;
  const std::string name = options.name;
  boxes_.push_back(std::make_unique<PandoraBox>(&shards_.shard(shard), &net_, std::move(options),
                                                reports_[static_cast<size_t>(shard)].get()));
  // First add wins for duplicate names, matching the old linear scan.
  box_index_.emplace(name, boxes_.size() - 1);
  if (started_) {
    boxes_.back()->Start();
  }
  return *boxes_.back();
}

void Simulation::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (auto& box : boxes_) {
    box->Start();
  }
}

StreamId Simulation::SendAudio(PandoraBox& src, PandoraBox& dst, const CallPath& path) {
  return SplitAudioTo(src, src.mic_stream(), dst, path);
}

StreamId Simulation::SplitAudioTo(PandoraBox& src, StreamId src_stream, PandoraBox& dst,
                                  const CallPath& path) {
  // The destination allocates the stream number (the VCI).  A further copy
  // of a stream already flowing only adds a route table entry, without
  // disturbing the copies in flight (principle 6).
  calls_.push_back(CallRecord{.kind = CallRecord::Kind::kAudio,
                              .src = &src,
                              .dst = &dst,
                              .src_stream = src_stream,
                              .at_dst = AllocateStream(),
                              .path = path});
  PlumbCall(calls_.back(), /*start_camera=*/false);
  return calls_.back().at_dst;
}

StreamId Simulation::SendVideo(PandoraBox& src, PandoraBox& dst, const Rect& rect,
                               int rate_numer, int rate_denom, int segments_per_frame,
                               const CallPath& path) {
  const StreamId at_dst = AllocateStream();
  const StreamId local = AllocateStream();
  calls_.push_back(CallRecord{.kind = CallRecord::Kind::kVideo,
                              .src = &src,
                              .dst = &dst,
                              .src_stream = local,
                              .at_dst = at_dst,
                              .path = path,
                              .rect = rect,
                              .rate_numer = rate_numer,
                              .rate_denom = rate_denom,
                              .segments_per_frame = segments_per_frame});
  PlumbCall(calls_.back(), /*start_camera=*/true);
  return at_dst;
}

void Simulation::PlumbCall(const CallRecord& call, bool start_camera) {
  PandoraBox& src = *call.src;
  PandoraBox& dst = *call.dst;
  const bool audio = call.kind == CallRecord::Kind::kAudio;
  // 1. The destination, which allocated the stream number, is configured first.
  dst.server_switch().OpenRoute(call.at_dst, audio ? dst.dest_audio_out() : dst.dest_display(),
                                /*incoming=*/true, audio);
  // 2. The network circuit (the VCI carries the destination's stream id).
  net_.OpenCircuit(src.port(), call.at_dst, dst.port(), call.path.hops, call.path.direct);
  // 3. The source's switch routes its stream to the network.
  src.server_switch().OpenRoute(call.src_stream, src.dest_network(), /*incoming=*/false, audio,
                                /*out_vci=*/call.at_dst);
  // 4. Finally, command the source to begin producing data.
  if (audio) {
    src.EnsureMicProducing();
  } else if (start_camera) {
    src.AddCameraStream(call.src_stream, call.rect, call.rate_numer, call.rate_denom,
                        call.segments_per_frame);
  }
}

StreamId Simulation::ShowLocalVideo(PandoraBox& box, const Rect& rect, int rate_numer,
                                    int rate_denom, int segments_per_frame) {
  StreamId local = AllocateStream();
  box.server_switch().OpenRoute(local, box.dest_display(), /*incoming=*/false, /*audio=*/false);
  box.AddCameraStream(local, rect, rate_numer, rate_denom, segments_per_frame);
  return local;
}

void Simulation::HangUpAudio(PandoraBox& src, PandoraBox& dst, StreamId at_dst) {
  for (CallRecord& call : calls_) {
    if (call.src == &src && call.dst == &dst && call.at_dst == at_dst) {
      UnplumbCall(call, /*src_side=*/true, /*dst_side=*/true);
      call.active = false;
    }
  }
}

void Simulation::UnplumbCall(const CallRecord& call, bool src_side, bool dst_side) {
  // Reverse of the set-up order: source first, so no more traffic enters
  // the circuit, then the circuit, then the destination's plumbing.  Any
  // other copies of the same source stream keep flowing (principle 6).
  if (src_side) {
    call.src->server_switch().CloseNetworkCopy(call.src_stream, call.at_dst,
                                               call.src->dest_network());
  }
  net_.CloseCircuit(call.src->port(), call.at_dst);
  if (dst_side) {
    PandoraBox& dst = *call.dst;
    const bool audio = call.kind == CallRecord::Kind::kAudio;
    dst.server_switch().CloseRoute(call.at_dst, audio ? dst.dest_audio_out() : dst.dest_display());
  }
}

PandoraBox* Simulation::FindBox(const std::string& name) {
  auto it = box_index_.find(name);
  return it == box_index_.end() ? nullptr : boxes_[it->second].get();
}

void Simulation::CrashBox(PandoraBox& box) {
  // Suspend every live leg touching the box, tearing down the surviving
  // endpoint's half of the plumbing.  The dead endpoint's state is about to
  // be destroyed wholesale, so only the peer needs host attention.
  for (CallRecord& call : calls_) {
    if (!call.active || call.suspended || (call.src != &box && call.dst != &box)) {
      continue;
    }
    call.suspended = true;
    call.src_down = call.src == &box;
    // If the receiver died, the sender stops its copy toward the dead VCI;
    // if the sender died, the receiver's stream table drops the dead peer's
    // row.  The circuit is keyed by the (surviving) source port; it closes
    // in either case so a restart reopens it cleanly.
    UnplumbCall(call, /*src_side=*/call.dst == &box && !call.src->crashed(),
                /*dst_side=*/call.src == &box && !call.dst->crashed());
  }
  box.Crash();
}

void Simulation::RestartBox(PandoraBox& box) {
  box.Restart();
  for (CallRecord& call : calls_) {
    if (!call.active || !call.suspended || (call.src != &box && call.dst != &box)) {
      continue;
    }
    if (call.src->crashed() || call.dst->crashed()) {
      continue;  // the peer is still down; its restart will re-plumb
    }
    // Same order and same ids as the original plumbing.  The sender's reboot
    // took its capture processes with it (a surviving sender whose receiver
    // crashed keeps the camera running).
    PlumbCall(call, /*start_camera=*/call.src_down);
    call.suspended = false;
    call.src_down = false;
  }
}

void Simulation::RecordStream(PandoraBox& box, StreamId stream, bool audio) {
  box.repository()->Arm(stream);
  box.server_switch().OpenRoute(stream, box.dest_repository(), /*incoming=*/true, audio);
}

void Simulation::FinishRecording(PandoraBox& box, StreamId stream) {
  box.server_switch().CloseRoute(stream, box.dest_repository());
  box.repository()->Finish(stream);
}

StreamId Simulation::PlayRecording(PandoraBox& box, StreamId stored, int blocks_per_segment) {
  StreamId playback = AllocateStream();
  box.server_switch().OpenRoute(playback, box.dest_audio_out(), /*incoming=*/true,
                                /*audio=*/true);
  box.repository()->Play(stored, playback, &box.switch_input(), &box.pool(),
                         blocks_per_segment);
  return playback;
}

StreamId Simulation::PlayVideoRecording(PandoraBox& box, StreamId stored) {
  StreamId playback = AllocateStream();
  box.server_switch().OpenRoute(playback, box.dest_display(), /*incoming=*/true,
                                /*audio=*/false);
  box.repository()->Play(stored, playback, &box.switch_input(), &box.pool());
  return playback;
}

}  // namespace pandora
