#include "src/core/box.h"

#include "src/runtime/check.h"

namespace pandora {
namespace {

// Spawns a throwaway process that performs one channel send — how the host
// injects commands into a running box.
template <typename T>
void SendAsync(Scheduler* sched, Channel<T>* channel, T value, const std::string& name) {
  auto sender = [](Channel<T>* channel, T value) -> Process {
    co_await channel->Send(std::move(value));
  };
  sched->Spawn(sender(channel, std::move(value)), name, Priority::kHigh);
}

}  // namespace

PandoraBox::Boards::Boards(Scheduler* sched, AtmPort* port, const Options& options,
                           SampleSource* mic, ReportSink* report_sink)
    :  // --- server board ---
      server_cpu_(sched, options.name + ".server.cpu"),
      pool_(sched, options.name + ".pool", options.pool_buffers, report_sink),
      switch_(sched, SwitchOptions{.name = options.name + ".switch"}, &server_cpu_, report_sink),
      to_audio_buf_(sched,
                    {.name = options.name + ".buf.audio_out",
                     .capacity = options.audio_out_buffer,
                     .use_ready_channel = true},
                    report_sink),
      to_display_buf_(sched,
                      {.name = options.name + ".buf.display",
                       .capacity = options.display_buffer,
                       .use_ready_channel = true},
                      report_sink),
      net_out_(sched,
               [&] {
                 NetworkOutputOptions o = options.netout;
                 o.name = options.name + ".netout";
                 return o;
               }(),
               &switch_.table(), port, report_sink, &deep_copies_),
      net_in_(sched, {.name = options.name + ".netin"}, port, &pool_, &switch_.input(),
              report_sink, &deep_copies_),
      // --- audio board ---
      audio_cpu_(sched, options.name + ".audio.cpu"),
      mic_chan_(sched, options.name + ".mic"),
      muting_(MutingConfig{.enabled = options.muting_enabled}),
      codec_in_(sched,
                {.name = options.name + ".codec.in", .clock_drift = options.audio_clock_drift},
                mic, &mic_chan_),
      audio_up_(sched, options.name + ".audio.up"),
      sender_(sched,
              {.name = options.name + ".audio.sender",
               .stream = options.mic_stream,
               .start_immediately = false,
               .costs = options.costs},
              &mic_chan_, &pool_, &audio_up_, &audio_cpu_,
              options.muting_enabled ? &muting_ : nullptr, report_sink),
      audio_up_link_(sched, options.name + ".link.audio_up", &audio_up_, &switch_.input()),
      audio_down_(sched, options.name + ".audio.down"),
      audio_down_link_(sched, options.name + ".link.audio_down", &to_audio_buf_.output(),
                       &audio_down_),
      bank_(options.clawback, Seconds(4),
            nullptr),  // reporter optional; clawback reports via receiver
      receiver_(sched, {.name = options.name + ".audio.receiver", .costs = options.costs},
                &audio_down_, &bank_, &audio_cpu_, report_sink),
      codec_out_(sched, {.name = options.name + ".codec.out",
                         .record_samples = options.record_played_audio}),
      mixer_(sched,
             AudioMixerOptions{.name = options.name + ".audio.mixer",
                               .clock_drift = options.audio_clock_drift,
                               .costs = options.costs},
             &bank_, &audio_cpu_, &codec_out_, options.muting_enabled ? &muting_ : nullptr),
      // --- video boards ---
      video_up_(sched, options.name + ".video.up"),
      video_up_link_(sched, options.name + ".fifo.video_up", &video_up_, &switch_.input(),
                     kVideoFifoBps),
      video_down_(sched, options.name + ".video.down"),
      video_down_link_(sched, options.name + ".fifo.video_down", &to_display_buf_.output(),
                       &video_down_, kVideoFifoBps) {
  // The bank has no Scheduler of its own; hand it the box's recorder so
  // clawback occupancy/drops appear on "<box>.clawback.*" tracks.
  bank_.BindTrace(sched->trace(), options.name + ".clawback");
  dest_audio_out_ = switch_.AddDestination("audio_out", &to_audio_buf_);
  dest_display_ = switch_.AddDestination("display", &to_display_buf_);
  dest_network_ = switch_.AddDestination("network", &net_out_.input(), &net_out_.ready());

  if (options.with_video) {
    pattern_ = std::make_unique<MovingBarPattern>(options.video_width);
    framestore_ = std::make_unique<FrameStore>(sched, pattern_.get(), options.video_width,
                                               options.video_height);
    display_ = std::make_unique<VideoDisplay>(
        sched,
        VideoDisplayOptions{.name = options.name + ".display",
                            .width = options.video_width,
                            .height = options.video_height},
        &video_down_, report_sink);
  }
  if (options.with_repository) {
    RepositoryOptions repo = options.repository;
    repo.name = options.name + ".repo";
    repository_ = std::make_unique<Repository>(sched, repo, report_sink);
    dest_repository_ = switch_.AddDestination("repository", &repository_->input(),
                                              &repository_->ready());
  }
}

PandoraBox::PandoraBox(Scheduler* sched, AtmNetwork* net, Options options,
                       ReportSink* report_sink)
    : sched_(sched),
      net_(net),
      options_(std::move(options)),
      report_sink_(report_sink),
      port_(net->AddPort(options_.name + ".port", options_.network_egress_bps,
                         options_.pool_buffers, report_sink,
                         options_.shard < 0 ? 0 : options_.shard)),
      mic_stream_(options_.mic_stream) {
  boards_ = std::make_unique<Boards>(sched_, port_, options_, mic_source(), report_sink_);
}

SampleSource* PandoraBox::mic_source() {
  if (options_.custom_mic != nullptr) {
    return options_.custom_mic;
  }
  if (owned_mic_ == nullptr) {
    switch (options_.mic) {
      case MicKind::kSine:
        owned_mic_ =
            std::make_unique<SineSource>(options_.mic_frequency, options_.mic_amplitude);
        break;
      case MicKind::kSpeech:
        owned_mic_ = std::make_unique<SpeechLikeSource>(options_.mic_amplitude);
        break;
      case MicKind::kSilence:
        owned_mic_ = std::make_unique<SilenceSource>();
        break;
    }
  }
  return owned_mic_.get();
}

void PandoraBox::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  Boards& b = boards();
  b.switch_.Start();
  b.to_audio_buf_.Start();
  b.to_display_buf_.Start();
  b.net_out_.Start();
  b.net_in_.Start();

  b.codec_in_.Start();
  b.sender_.Start();
  b.audio_up_link_.Start();
  b.audio_down_link_.Start();
  b.receiver_.Start();
  b.codec_out_.Start();
  b.mixer_.Start();

  if (options_.with_video) {
    b.video_up_link_.Start();
    b.video_down_link_.Start();
    b.display_->Start();
  }
  if (b.repository_ != nullptr) {
    b.repository_->Start();
  }
}

void PandoraBox::Crash() {
  PANDORA_CHECK(boards_ != nullptr, "crashing a box that is already down");
  // Link first: anything arriving from now on is discarded at the port, and
  // deliveries already parked on the rx channel are drained, so no peer's
  // forwarder stays parked against a box that will never receive again.
  net_->SetPortUp(port_, false);  // NOLINT(pandora-fault-hooks): crash lifecycle
  // Kill this box's whole process group — components, relays, per-segment
  // forwarders, pending host commands — by name prefix.  The kill sweep
  // returns every parked segment to the pool, which is still alive here.
  const std::string prefix = options_.name + ".";
  sched_->KillProcesses([&prefix](const ProcessCtx& ctx) {
    return ctx.name.compare(0, prefix.size(), prefix) == 0;
  });
  // Now the boards themselves: queued segments drain back to the pool in
  // destruction order (consumers before the pool), then the pool goes.
  boards_.reset();
  mic_producing_ = false;
  started_ = false;
  ++crash_count_;
}

void PandoraBox::Restart() {
  PANDORA_CHECK(boards_ == nullptr, "restarting a box that is not down");
  boards_ = std::make_unique<Boards>(sched_, port_, options_, mic_source(), report_sink_);
  net_->SetPortUp(port_, true);   // NOLINT(pandora-fault-hooks): crash lifecycle
  net_->RestartPort(port_);       // NOLINT(pandora-fault-hooks): crash lifecycle
  Start();
}

void PandoraBox::SetAudioClockDrift(double drift) {
  // Stored in Options so a later Restart() boots with the stepped quartz.
  options_.audio_clock_drift = drift;
  if (boards_ != nullptr) {
    boards_->codec_in_.SetClockDrift(drift);
    boards_->codec_out_.SetClockDrift(drift);
    boards_->mixer_.SetClockDrift(drift);
  }
}

void PandoraBox::EnsureMicProducing() {
  if (mic_producing_) {
    return;
  }
  mic_producing_ = true;
  SendAsync(sched_, &boards().sender_.commands(),
            Command{CommandVerb::kStartStream, mic_stream_, 0, 0},
            options_.name + ".host.startmic");
}

StreamId PandoraBox::AddCameraStream(StreamId stream, const Rect& rect, int rate_numer,
                                     int rate_denom, int segments_per_frame, LineCoding coding) {
  PANDORA_CHECK(options_.with_video);
  Boards& b = boards();
  VideoCaptureOptions capture_options;
  capture_options.name = options_.name + ".capture." + std::to_string(stream);
  capture_options.stream = stream;
  capture_options.rect = rect;
  capture_options.rate_numer = rate_numer;
  capture_options.rate_denom = rate_denom;
  capture_options.segments_per_frame = segments_per_frame;
  capture_options.coding = coding;
  b.captures_.push_back(std::make_unique<VideoCapture>(sched_, capture_options,
                                                       b.framestore_.get(), &b.pool_,
                                                       &b.video_up_, &b.server_cpu_,
                                                       report_sink_));
  b.captures_.back()->Start();
  return stream;
}

}  // namespace pandora
