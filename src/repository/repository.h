// Repository: stream recording and playback (sections 2.1, 3.2, 4.1).
//
// Repositories reverse principle 1: "the incoming data streams should be
// recorded as accurately as possible, even if that means degrading streams
// that are currently being played out.  It is a simple matter to play a
// stream again, but recording one again could present greater difficulties."
// Recording therefore accepts everything (bounded only by disk bandwidth,
// where the recorder's high priority wins reservations over playback).
//
// After recording finishes, audio is repacked from live 2..24ms segments
// into the 40ms/36-byte-header storage format, "played back directly to any
// Pandora box".  Per-recording timestamp offsets are kept so streams
// recorded together can be re-synchronised at playback (section 3.2).
#ifndef PANDORA_SRC_REPOSITORY_REPOSITORY_H_
#define PANDORA_SRC_REPOSITORY_REPOSITORY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/segment/repack.h"
#include "src/segment/segment.h"

namespace pandora {

struct RepositoryOptions {
  std::string name = "repository";
  int64_t disk_bits_per_second = 16'000'000;
};

class Repository {
 public:
  Repository(Scheduler* sched, RepositoryOptions options, ReportSink* report_sink = nullptr);

  void Start();

  // Switch-destination endpoint for recording (fig 3.6 ready protocol;
  // always answers TRUE — recordings are not degraded).
  Channel<SegmentRef>& input() { return input_; }
  Channel<bool>& ready() { return ready_; }

  // Begin accepting segments labelled `stream`.
  void Arm(StreamId stream);
  // Stop recording `stream`; audio recordings are repacked for storage.
  void Finish(StreamId stream);

  struct Recording {
    std::vector<Segment> segments;
    uint32_t first_timestamp = 0;  // offset for cross-stream sync
    bool armed = false;
    bool repacked = false;
    uint64_t segments_received = 0;
    size_t raw_bytes = 0;     // as received (live headers)
    size_t stored_bytes = 0;  // after repacking
  };

  const Recording* Find(StreamId stream) const;

  // Replays a stored stream into `out` (usually a switch input), labelled
  // `as_stream`, paced in real time by the recorded timestamps.  Audio
  // recordings are unpacked into `blocks_per_segment`-block live segments.
  ProcessHandle Play(StreamId stored, StreamId as_stream, Channel<SegmentRef>* out,
                     BufferPool* pool, int blocks_per_segment = kDefaultBlocksPerSegment);

  uint64_t segments_recorded() const { return segments_recorded_; }
  uint64_t segments_discarded() const { return segments_discarded_; }

 private:
  Process RecordProc();
  Process PlayProc(Recording* recording, StreamId as_stream, Channel<SegmentRef>* out,
                   BufferPool* pool, int blocks_per_segment);

  Scheduler* sched_;
  RepositoryOptions options_;
  Reporter reporter_;
  Channel<SegmentRef> input_;
  Channel<bool> ready_;
  BandwidthGate disk_;
  std::map<StreamId, Recording> recordings_;
  uint64_t segments_recorded_ = 0;
  uint64_t segments_discarded_ = 0;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_REPOSITORY_REPOSITORY_H_
