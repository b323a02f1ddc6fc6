#include "src/medusa/devices.h"

#include "src/buffer/small_vec.h"
#include "src/runtime/check.h"

namespace pandora {
namespace {

std::unique_ptr<SampleSource> MakeSource(MicKind kind, double frequency, double amplitude) {
  switch (kind) {
    case MicKind::kSine:
      return std::make_unique<SineSource>(frequency, amplitude);
    case MicKind::kSpeech:
      return std::make_unique<SpeechLikeSource>(amplitude);
    case MicKind::kSilence:
      return std::make_unique<SilenceSource>();
  }
  return std::make_unique<SilenceSource>();
}

}  // namespace

// --- MedusaDevice ------------------------------------------------------------

Process MedusaDevice::UplinkProc(Channel<SegmentRef>* segments, const std::vector<Vci>* vcis) {
  for (;;) {
    SegmentRef ref = co_await segments->Receive();
    if (vcis->empty()) {
      continue;  // nobody listening yet: the data is discarded
    }
    WireRef wire = co_await port_->wire_pool().Allocate();
    // Copied before the first send: a listener can be added while a send
    // waits on the interface.
    SmallVec<Vci, 16> targets;
    for (Vci vci : *vcis) {
      targets.push_back(vci);
    }
    EncodeForWire(std::move(ref), wire.get(), &deep_copies_);
    // Each NetTx is built in a named local (GCC 12: see NetworkOutput).
    for (size_t i = 0; i < targets.size(); ++i) {
      NetTx tx;
      tx.vci = targets[i];
      tx.wire = i + 1 < targets.size() ? wire.Dup() : std::move(wire);
      co_await port_->tx().Send(std::move(tx));
    }
  }
}

// --- NetMicrophone -----------------------------------------------------------

NetMicrophone::NetMicrophone(Scheduler* sched, AtmNetwork* net, Options options,
                             ReportSink* report_sink)
    : MedusaDevice(sched, net, options.name),
      options_(options),
      source_(MakeSource(options.kind, options.frequency, options.amplitude)),
      blocks_(sched, options.name + ".blocks"),
      codec_in_(sched, {.name = options.name + ".codec", .clock_drift = options.clock_drift},
                source_.get(), &blocks_),
      segments_(sched, options.name + ".segments"),
      sender_(sched,
              {.name = options.name + ".sender",
               .stream = options.stream,
               .blocks_per_segment = options.blocks_per_segment},
              &blocks_, &pool_, &segments_, nullptr, nullptr, report_sink) {}

void NetMicrophone::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  codec_in_.Start();
  sender_.Start();
  sched_->Spawn(UplinkProc(&segments_, &vcis_), name_ + ".uplink", Priority::kHigh);
}

// --- NetSpeaker --------------------------------------------------------------

NetSpeaker::NetSpeaker(Scheduler* sched, AtmNetwork* net, Options options,
                       ReportSink* report_sink)
    : MedusaDevice(sched, net, options.name),
      options_(options),
      incoming_(sched, options.name + ".in"),
      net_in_(sched, {.name = options.name + ".netin"}, port_, &pool_, &incoming_, report_sink,
              &deep_copies_),
      bank_(options.clawback),
      receiver_(sched, {.name = options.name + ".receiver"}, &incoming_, &bank_, nullptr,
                report_sink),
      codec_out_(sched, {.name = options.name + ".codec",
                         .clock_drift = options.clock_drift,
                         .record_samples = options.record_samples}),
      mixer_(sched,
             AudioMixerOptions{.name = options.name + ".mixer",
                               .clock_drift = options.clock_drift},
             &bank_, nullptr, &codec_out_) {}

void NetSpeaker::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  net_in_.Start();
  receiver_.Start();
  codec_out_.Start();
  mixer_.Start();
}

// --- NetCamera ---------------------------------------------------------------

NetCamera::NetCamera(Scheduler* sched, AtmNetwork* net, Options options, ReportSink* report_sink)
    : MedusaDevice(sched, net, options.name),
      options_(options),
      pattern_(options.width),
      framestore_(sched, &pattern_, options.width, options.height),
      segments_(sched, options.name + ".segments"),
      capture_(sched,
               VideoCaptureOptions{.name = options.name + ".capture",
                                   .stream = options.stream,
                                   .rect = options.rect,
                                   .rate_numer = options.rate_numer,
                                   .rate_denom = options.rate_denom,
                                   .segments_per_frame = options.segments_per_frame,
                                   .coding = options.coding},
               &framestore_, &pool_, &segments_, nullptr, report_sink) {}

void NetCamera::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  capture_.Start();
  sched_->Spawn(UplinkProc(&segments_, &vcis_), name_ + ".uplink", Priority::kHigh);
}

// --- NetDisplay --------------------------------------------------------------

NetDisplay::NetDisplay(Scheduler* sched, AtmNetwork* net, Options options,
                       ReportSink* report_sink)
    : MedusaDevice(sched, net, options.name),
      options_(options),
      incoming_(sched, options.name + ".in"),
      net_in_(sched, {.name = options.name + ".netin"}, port_, &pool_, &incoming_, report_sink,
              &deep_copies_),
      display_(sched,
               VideoDisplayOptions{.name = options.name + ".screen",
                                   .width = options.width,
                                   .height = options.height},
               &incoming_, report_sink) {}

void NetDisplay::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  net_in_.Start();
  display_.Start();
}

// --- Plumbing ----------------------------------------------------------------

StreamId ConnectAudio(AtmNetwork* net, NetMicrophone* mic, NetSpeaker* speaker,
                      const std::vector<NetHop*>& path, const HopQuality& direct) {
  StreamId at_speaker = speaker->AllocateInput();
  net->OpenCircuit(mic->port(), at_speaker, speaker->port(), path, direct);
  mic->AddListener(at_speaker);
  return at_speaker;
}

StreamId ConnectVideo(AtmNetwork* net, NetCamera* camera, NetDisplay* display,
                      const std::vector<NetHop*>& path, const HopQuality& direct) {
  StreamId at_display = display->AllocateInput();
  net->OpenCircuit(camera->port(), at_display, display->port(), path, direct);
  camera->AddViewer(at_display);
  return at_display;
}

}  // namespace pandora
