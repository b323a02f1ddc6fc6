// Medusa: Pandora exploded into standalone network peripherals
// (paper section 5.2, future work).
//
// "The next implementation (project Medusa) encompasses a wider range of
// operating environments including... peripherals attached individually to
// the network...  The main difference in Medusa is that the Pandora boards
// communicating over a network of links and ATM rings have been replaced by
// Medusa boards communicating over an ATM switch fabric so that we have an
// exploded Pandora...  the principles employed in Pandora will still be
// applicable."
//
// Each device owns an AtmPort on the shared fabric (100 Mbit/s links, per
// the paper's upgrade) and reuses the Pandora stream machinery directly:
// the microphone runs the codec + block handler, the speaker runs the
// receiver + clawback bank + mixer, the camera runs the framestore +
// capture pipeline, the display runs frame assembly.  There is no server
// transputer: streams "are more independent than in Pandora, being split
// apart into different chains of processes once they leave the input device
// driver".
#ifndef PANDORA_SRC_MEDUSA_DEVICES_H_
#define PANDORA_SRC_MEDUSA_DEVICES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/audio/codec.h"
#include "src/audio/mixer.h"
#include "src/audio/receiver.h"
#include "src/audio/sender.h"
#include "src/audio/signal.h"
#include "src/buffer/clawback.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/server/netio.h"
#include "src/video/capture.h"
#include "src/video/display.h"
#include "src/video/framestore.h"

namespace pandora {

inline constexpr int64_t kMedusaLinkBps = 100'000'000;

// Shared base: a port on the fabric plus a local buffer pool.
class MedusaDevice {
 public:
  MedusaDevice(Scheduler* sched, AtmNetwork* net, const std::string& name,
               size_t pool_buffers = 64, int64_t egress_bps = kMedusaLinkBps)
      : sched_(sched),
        name_(name),
        port_(net->AddPort(name + ".port", egress_bps, pool_buffers)),
        pool_(sched, name + ".pool", pool_buffers) {}

  virtual ~MedusaDevice() = default;

  const std::string& name() const { return name_; }
  AtmPort* port() { return port_; }
  BufferPool& pool() { return pool_; }
  // Wire-path payload copies (encodes at senders, decodes at receivers).
  uint64_t deep_copies() const { return deep_copies_; }

 protected:
  // Ships every segment from `segments` onto the fabric, one circuit per
  // VCI in `vcis`: one encode, shared by Dup() across the circuits.
  // Segments sent while nobody listens are discarded.
  Process UplinkProc(Channel<SegmentRef>* segments, const std::vector<Vci>* vcis);

  Scheduler* sched_;
  std::string name_;
  AtmPort* port_;
  BufferPool pool_;
  uint64_t deep_copies_ = 0;
};

// A microphone on the network: codec -> block handler -> fabric.  The
// stream can be sent to several destinations (per-VCI wire copies).
class NetMicrophone : public MedusaDevice {
 public:
  struct Options {
    std::string name = "medusa.mic";
    StreamId stream = 1;
    MicKind kind = MicKind::kSine;
    double frequency = 440.0;
    double amplitude = 9000.0;
    double clock_drift = 0.0;
    int blocks_per_segment = kDefaultBlocksPerSegment;
  };

  NetMicrophone(Scheduler* sched, AtmNetwork* net, Options options,
                ReportSink* report_sink = nullptr);

  void Start();

  // Adds a circuit to one more listener; the VCI is the stream id the
  // far-end speaker expects.
  void AddListener(Vci vci) { vcis_.push_back(vci); }

  AudioSender& sender() { return sender_; }
  uint64_t segments_sent() const { return sender_.segments_sent(); }

 private:
  Options options_;
  std::unique_ptr<SampleSource> source_;
  Channel<AudioBlock> blocks_;
  CodecInput codec_in_;
  Channel<SegmentRef> segments_;
  AudioSender sender_;
  std::vector<Vci> vcis_;
  bool started_ = false;
};

// A loudspeaker on the network: fabric -> receiver -> clawback -> mixer ->
// codec.  Mixes any number of incoming streams, exactly like the Pandora
// audio board ("no limit is placed on the number of incoming streams").
class NetSpeaker : public MedusaDevice {
 public:
  struct Options {
    std::string name = "medusa.speaker";
    double clock_drift = 0.0;
    bool record_samples = false;
    ClawbackConfig clawback;
  };

  NetSpeaker(Scheduler* sched, AtmNetwork* net, Options options,
             ReportSink* report_sink = nullptr);

  void Start();

  // Allocates a stream id for one incoming source (used as its VCI).
  StreamId AllocateInput() { return next_stream_++; }

  AudioReceiver& receiver() { return receiver_; }
  AudioMixer& mixer() { return mixer_; }
  CodecOutput& codec_out() { return codec_out_; }
  ClawbackBank& bank() { return bank_; }

 private:
  Options options_;
  Channel<SegmentRef> incoming_;
  NetworkInput net_in_;
  ClawbackBank bank_;
  AudioReceiver receiver_;
  CodecOutput codec_out_;
  AudioMixer mixer_;
  StreamId next_stream_ = 1;
  bool started_ = false;
};

// A camera on the network: framestore -> capture -> fabric.
class NetCamera : public MedusaDevice {
 public:
  struct Options {
    std::string name = "medusa.camera";
    StreamId stream = 1;
    int width = 64;
    int height = 48;
    Rect rect{0, 0, 64, 48};
    int rate_numer = 1;
    int rate_denom = 1;
    int segments_per_frame = 4;
    LineCoding coding = LineCoding::kDpcmLine;
  };

  NetCamera(Scheduler* sched, AtmNetwork* net, Options options,
            ReportSink* report_sink = nullptr);

  void Start();
  void AddViewer(Vci vci) { vcis_.push_back(vci); }

  VideoCapture& capture() { return capture_; }

 private:
  Options options_;
  MovingBarPattern pattern_;
  FrameStore framestore_;
  Channel<SegmentRef> segments_;
  VideoCapture capture_;
  std::vector<Vci> vcis_;
  bool started_ = false;
};

// A display on the network: fabric -> frame assembly -> screen.
class NetDisplay : public MedusaDevice {
 public:
  struct Options {
    std::string name = "medusa.display";
    int width = 64;
    int height = 48;
  };

  NetDisplay(Scheduler* sched, AtmNetwork* net, Options options,
             ReportSink* report_sink = nullptr);

  void Start();

  StreamId AllocateInput() { return next_stream_++; }
  VideoDisplay& display() { return display_; }

 private:
  Options options_;
  Channel<SegmentRef> incoming_;
  NetworkInput net_in_;
  VideoDisplay display_;
  StreamId next_stream_ = 1;
  bool started_ = false;
};

// Host-side plumbing: connect a microphone to a speaker (returns the stream
// id at the speaker), or a camera to a display.
StreamId ConnectAudio(AtmNetwork* net, NetMicrophone* mic, NetSpeaker* speaker,
                      const std::vector<NetHop*>& path = {},
                      const HopQuality& direct = HopQuality{});
StreamId ConnectVideo(AtmNetwork* net, NetCamera* camera, NetDisplay* display,
                      const std::vector<NetHop*>& path = {},
                      const HopQuality& direct = HopQuality{});

}  // namespace pandora

#endif  // PANDORA_SRC_MEDUSA_DEVICES_H_
