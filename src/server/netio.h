// Network input/output device handlers (sections 3.4, 3.7.1, fig 3.7).
//
// Output: "The first limit that tends to be exceeded in normal operation is
// the bandwidth of the interface to the network...  We limit the size of
// this buffer so that the video delays do not become aggravating to the
// user, and buffer the audio separately so that it can be given priority
// (principle 2)."  NetworkOutput is the splitter of fig 3.7: one switch
// destination that classifies segments into a generously-sized audio
// decoupling buffer and a deliberately small video one; its sender drains
// audio strictly before video into the port's (non-interleaving) interface.
//
// The sender is also where the ONE wire encode happens: the segment is
// serialized into a refcounted WireBuffer from the port's pool, the box's
// segment buffer is recycled, and multi-destination fanout shares the same
// encoded bytes by Dup() — the VCI carries the stream id, so the image is
// identical for every destination (DESIGN.md §9).
//
// Input: receives encoded segments off the wire, performs the ONE decode
// (validating the self-describing header, fig 3.1), copies the result into
// this box's buffer pool — the "copy once into memory" — and hands
// references to the switch.  Malformed wire images (bit corruption,
// truncation) are counted and reported, never forwarded; the sequence gap
// they leave is absorbed downstream by the clawback buffer.
#ifndef PANDORA_SRC_SERVER_NETIO_H_
#define PANDORA_SRC_SERVER_NETIO_H_

#include <string>

#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/net/atm.h"
#include "src/runtime/alt.h"
#include "src/runtime/check.h"
#include "src/runtime/scheduler.h"
#include "src/server/stream_table.h"

namespace pandora {

// The ONE serialization on the transmit side: encodes `ref` into `wire` (a
// recycled buffer from a port's wire pool, whose heap capacity the encode
// reuses), releases the box's segment buffer as soon as serialization
// completes, and counts the pass in `*deep_copies` when non-null.  The
// stream field is omitted, so every destination's NetTx can share the same
// bytes by Dup(): the VCI relabels it.
void EncodeForWire(SegmentRef ref, WireBuffer* wire, uint64_t* deep_copies);

struct NetworkOutputOptions {
  std::string name = "server.netout";
  size_t audio_buffer_capacity = 64;  // audio rarely queues long
  size_t video_buffer_capacity = 6;   // small: bound the video delay
  // Principle 2 at the interface; false only for ablation studies.
  bool audio_priority = true;
};

class NetworkOutput : private PassiveReceiver<SegmentRef> {
 public:
  NetworkOutput(Scheduler* sched, NetworkOutputOptions options, StreamTable* table, AtmPort* port,
                ReportSink* report_sink = nullptr, uint64_t* deep_copies = nullptr);

  void Start();

  // The switch-facing destination endpoint (ready protocol).  Passive: the
  // switch's offer is sorted into the audio or video buffer, and answered,
  // inside the switch's own dispatch.
  Channel<SegmentRef>& input() { return input_; }
  Channel<bool>& ready() { return ready_; }

  uint64_t sent() const { return sent_; }
  uint64_t audio_drops() const { return audio_sender_.drops(); }
  uint64_t video_drops() const { return video_sender_.drops(); }
  // Per-class accepted counts, so chaos tests can compare drop *fractions*
  // (P2: the audio fraction must not exceed the video fraction).
  uint64_t audio_sent() const { return audio_sender_.sent(); }
  uint64_t video_sent() const { return video_sender_.sent(); }
  DecouplingBuffer& audio_buffer() { return audio_buffer_; }
  DecouplingBuffer& video_buffer() { return video_buffer_; }

 private:
  // The splitter of fig 3.7: classifies one offer on input().
  bool Accept(SegmentRef& ref) override;
  Process SenderProc();

  Scheduler* sched_;
  NetworkOutputOptions options_;
  StreamTable* table_;
  AtmPort* port_;
  Reporter reporter_;

  Channel<SegmentRef> input_;
  Channel<bool> ready_;
  DecouplingBuffer audio_buffer_;
  DecouplingBuffer video_buffer_;
  ReadySender audio_sender_;
  ReadySender video_sender_;
  uint64_t sent_ = 0;
  // Per-box deep-copy counter (shared with NetworkInput): each wire encode
  // is one of the box's two sanctioned copies per delivered segment.
  uint64_t* deep_copies_ = nullptr;
  TraceSiteId trace_copies_ = 0;
  bool started_ = false;
};

struct NetworkInputOptions {
  std::string name = "server.netin";
};

class NetworkInput {
 public:
  NetworkInput(Scheduler* sched, NetworkInputOptions options, AtmPort* port, BufferPool* pool,
               Channel<SegmentRef>* to_switch, ReportSink* report_sink = nullptr,
               uint64_t* deep_copies = nullptr)
      : sched_(sched),
        options_(std::move(options)),
        port_(port),
        pool_(pool),
        to_switch_(to_switch),
        reporter_(sched, report_sink, options_.name),
        deep_copies_(deep_copies) {}

  void Start(Priority priority = Priority::kLow) {
    PANDORA_CHECK(!started_);
    started_ = true;
    sched_->Spawn(Run(), options_.name, priority);
  }

  uint64_t received() const { return received_; }
  // Wire images that failed DecodeSegment validation (counted, reported,
  // and dropped; clawback recovery rides the sequence numbers past them).
  uint64_t decode_failures() const { return decode_failures_; }

 private:
  Process Run();

  Scheduler* sched_;
  NetworkInputOptions options_;
  AtmPort* port_;
  BufferPool* pool_;
  Channel<SegmentRef>* to_switch_;
  Reporter reporter_;
  // Decode target: swapped into the pool slot once the decode succeeds.
  Segment scratch_;
  uint64_t* deep_copies_ = nullptr;
  uint64_t received_ = 0;
  uint64_t decode_failures_ = 0;
  TraceSiteId trace_copies_ = 0;
  TraceSiteId trace_decode_fail_ = 0;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_SERVER_NETIO_H_
