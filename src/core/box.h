// PandoraBox: one complete Pandora's Box, wired per figures 1.2 and 1.3.
//
// Boards and their interconnect:
//   audio board   — codec capture/playout, block handler (AudioSender),
//                   clawback bank + receiver + mixer, muting; joined to the
//                   server by 20 Mbit/s links.
//   capture board — framestore + per-stream VideoCapture; video reaches the
//                   server over a 100 Mbit/s fifo.
//   mixer board   — VideoDisplay (frame assembly, tear-free blit), fed from
//                   the server over a 100 Mbit/s fifo.
//   server board  — buffer pool (allocator), the Switch, per-destination
//                   decoupling buffers, network in/out handlers.
//   network board — an AtmPort on the shared ATM fabric.
//
// The host-side control surface (allocate stream, plumb destination back to
// source, start the source — section 1.1) lives on Simulation, which owns
// the boxes and the network.
//
// Crash/restart (fault injection): every board lives inside the Boards
// struct behind a unique_ptr.  Crash() takes the port's link down, kills
// every process in the box's "<name>." group mid-run (see
// Scheduler::KillProcesses) and destroys the boards — queued segments drain
// back to the pool while it is still alive, then the pool itself goes.
// Restart() rebuilds the boards cold: empty buffers, fresh stats, streams
// re-registered by the host (Simulation::RestartBox).  The AtmPort and the
// microphone hardware survive the reboot; everything else is lost, exactly
// as a real power cycle would lose it.
#ifndef PANDORA_SRC_CORE_BOX_H_
#define PANDORA_SRC_CORE_BOX_H_

#include <memory>
#include <string>
#include <vector>

#include "src/audio/codec.h"
#include "src/audio/costs.h"
#include "src/audio/mixer.h"
#include "src/audio/muting.h"
#include "src/audio/receiver.h"
#include "src/audio/sender.h"
#include "src/audio/signal.h"
#include "src/buffer/clawback.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/net/atm.h"
#include "src/repository/repository.h"
#include "src/runtime/check.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/server/netio.h"
#include "src/server/relay.h"
#include "src/server/switch.h"
#include "src/video/capture.h"
#include "src/video/display.h"
#include "src/video/framestore.h"

namespace pandora {

class PandoraBox {
 public:
  struct Options {
    std::string name = "box";
    // Local stream number for the microphone (Simulation allocates these).
    StreamId mic_stream = kInvalidStream;
    // Audio source at this box's microphone.
    MicKind mic = MicKind::kSine;
    double mic_frequency = 440.0;
    double mic_amplitude = 9000.0;
    SampleSource* custom_mic = nullptr;  // overrides `mic` if set
    double audio_clock_drift = 0.0;      // quartz tolerance, ~1e-5
    bool muting_enabled = false;
    bool record_played_audio = false;  // codec playout keeps every sample
    // Video hardware.
    bool with_video = true;
    int video_width = 64;
    int video_height = 48;
    // Server resources.
    size_t pool_buffers = 256;
    // Network interface rate ("mixed traffic 20 Mbit/s link", fig 1.2).
    int64_t network_egress_bps = 20'000'000;
    size_t audio_out_buffer = 32;
    size_t display_buffer = 16;
    NetworkOutputOptions netout;
    // CPU cost calibration.
    AudioCpuCosts costs;
    ClawbackConfig clawback;
    // Attach a repository (recording reverses P1 on this box).
    bool with_repository = false;
    RepositoryOptions repository;
    // ShardSet shard this box (all its boards, processes and its port) lives
    // on.  -1 asks Simulation's seeded placement policy to choose; a
    // concrete index pins the box (DESIGN.md §14).  Ignored outside a
    // Simulation-built world.
    int shard = -1;
  };

  PandoraBox(Scheduler* sched, AtmNetwork* net, Options options, ReportSink* report_sink);

  void Start();

  // --- Fault lifecycle -------------------------------------------------------

  // Power-fails the box mid-run: link down, every "<name>."-prefixed process
  // killed, all boards destroyed.  The rest of the simulation keeps going;
  // peers observe loss and (via the host) closed circuits.  Must not be
  // called from one of this box's own processes.
  void Crash();

  // Cold boot after Crash(): rebuilds the boards from Options, brings the
  // link back up and starts the component processes.  All buffers start
  // empty and all statistics start from zero; the host re-plumbs streams.
  void Restart();

  bool crashed() const { return boards_ == nullptr; }
  uint64_t crash_count() const { return crash_count_; }

  // Fault hook: steps this box's audio quartz (capture, playout and mixing
  // run off the same local oscillator).  Survives a restart.
  void SetAudioClockDrift(double drift);
  double audio_clock_drift() const { return options_.audio_clock_drift; }

  // --- Host-side controls ---------------------------------------------------

  // The local microphone stream's id (starts producing on first use).
  StreamId mic_stream() const { return mic_stream_; }
  void EnsureMicProducing();

  // Adds a camera stream; returns its local stream id (video must be on).
  StreamId AddCameraStream(StreamId stream, const Rect& rect, int rate_numer, int rate_denom,
                           int segments_per_frame, LineCoding coding = LineCoding::kDpcmLine);

  // --- Topology handles (used by Simulation's plumbing) ----------------------

  Switch& server_switch() { return boards().switch_; }
  AtmPort* port() { return port_; }
  DestinationId dest_audio_out() const { return boards().dest_audio_out_; }
  DestinationId dest_display() const { return boards().dest_display_; }
  DestinationId dest_network() const { return boards().dest_network_; }
  DestinationId dest_repository() const { return boards().dest_repository_; }
  Channel<SegmentRef>& switch_input() { return boards().switch_.input(); }
  BufferPool& pool() { return boards().pool_; }

  // --- Observability ----------------------------------------------------------

  const std::string& name() const { return options_.name; }
  // Shard this box was placed on (0 unless a spanning Simulation resolved
  // Options::shard to something else before construction).
  int shard() const { return options_.shard < 0 ? 0 : options_.shard; }
  AudioMixer& mixer() { return boards().mixer_; }
  CodecOutput& codec_out() { return boards().codec_out_; }
  AudioReceiver& audio_receiver() { return boards().receiver_; }
  AudioSender& audio_sender() { return boards().sender_; }
  ClawbackBank& clawback_bank() { return boards().bank_; }
  MutingControl& muting() { return boards().muting_; }
  VideoDisplay* display() { return boards().display_.get(); }
  VideoCapture* capture(size_t i) { return boards().captures_.at(i).get(); }
  NetworkOutput& network_output() { return boards().net_out_; }
  NetworkInput& network_input() { return boards().net_in_; }
  // Wire-path payload copies since (re)boot — encodes plus decodes.
  uint64_t deep_copies() const { return boards().deep_copies_; }
  Repository* repository() { return boards().repository_.get(); }
  DecouplingBuffer& audio_out_buffer() { return boards().to_audio_buf_; }

 private:
  // Everything that dies in a crash.  Construction wires the boards exactly
  // as the original single-shot constructor did; destruction order (reverse
  // of declaration) drains consumers before the pool they drain into.
  struct Boards {
    Boards(Scheduler* sched, AtmPort* port, const Options& options, SampleSource* mic,
           ReportSink* report_sink);

    // Server board.
    CpuModel server_cpu_;
    BufferPool pool_;
    Switch switch_;
    DecouplingBuffer to_audio_buf_;
    DecouplingBuffer to_display_buf_;
    // Deep copies of segment data on the wire path (one per encode at
    // net_out_, one per decode at net_in_): the §3.4 "once in, once out"
    // budget, asserted ≤ 2 per delivered segment by tests/wirepath_test.cc.
    uint64_t deep_copies_ = 0;
    NetworkOutput net_out_;
    NetworkInput net_in_;
    DestinationId dest_audio_out_ = kInvalidDestination;
    DestinationId dest_display_ = kInvalidDestination;
    DestinationId dest_network_ = kInvalidDestination;
    DestinationId dest_repository_ = kInvalidDestination;

    // Audio board.
    CpuModel audio_cpu_;
    Channel<AudioBlock> mic_chan_;
    MutingControl muting_;
    CodecInput codec_in_;
    Channel<SegmentRef> audio_up_;
    AudioSender sender_;
    LinkRelay audio_up_link_;
    Channel<SegmentRef> audio_down_;
    LinkRelay audio_down_link_;
    ClawbackBank bank_;
    AudioReceiver receiver_;
    CodecOutput codec_out_;
    AudioMixer mixer_;

    // Capture + mixer (display) boards.
    std::unique_ptr<MovingBarPattern> pattern_;
    std::unique_ptr<FrameStore> framestore_;
    Channel<SegmentRef> video_up_;
    LinkRelay video_up_link_;
    Channel<SegmentRef> video_down_;
    LinkRelay video_down_link_;
    std::unique_ptr<VideoDisplay> display_;
    std::vector<std::unique_ptr<VideoCapture>> captures_;

    std::unique_ptr<Repository> repository_;
  };

  Boards& boards() const {
    PANDORA_CHECK(boards_ != nullptr, "box is crashed");
    return *boards_;
  }
  SampleSource* mic_source();

  Scheduler* sched_;
  AtmNetwork* net_;
  Options options_;
  ReportSink* report_sink_;

  // The physical microphone outlives a reboot: after Restart() the source
  // resumes from its current phase, it does not rewind.
  std::unique_ptr<SampleSource> owned_mic_;
  // The network port object belongs to AtmNetwork and survives a crash; only
  // its link state and transmit process cycle with the box.
  AtmPort* port_;

  std::unique_ptr<Boards> boards_;

  StreamId mic_stream_ = kInvalidStream;
  bool mic_producing_ = false;
  bool started_ = false;
  uint64_t crash_count_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_CORE_BOX_H_
