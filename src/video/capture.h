// VideoCapture: one video stream from a rectangle of the camera's field of
// view (sections 3.3, 3.6).
//
// "The capture transputer can read several streams from different
// overlapping rectangles...  The frame rates are expressed as a fraction of
// full 25Hz frame rate.  For example, 2/5 gives an average of 10 frames per
// second."  A frame is divided into horizontal strips, each sent as one
// Pandora segment "despatched as soon as the data is ready, reducing
// latencies and buffering requirements".
//
// Lines are compressed per the one-byte line headers of dpcm.h: a strip's
// first line self-codes (or vertically against the previous strip via the
// destination's line cache) and the data is pushed through the pipelined
// compressor model with a dummy-line flush per segment.
#ifndef PANDORA_SRC_VIDEO_CAPTURE_H_
#define PANDORA_SRC_VIDEO_CAPTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/buffer/pool.h"
#include "src/control/command.h"
#include "src/control/report.h"
#include "src/runtime/alt.h"
#include "src/runtime/resource.h"
#include "src/runtime/scheduler.h"
#include "src/video/dpcm.h"
#include "src/video/framestore.h"
#include "src/video/pipeline.h"

namespace pandora {

struct VideoCaptureOptions {
  std::string name = "video.capture";
  StreamId stream = kInvalidStream;
  Rect rect;
  // Frame rate as a fraction of 25Hz: numer/denom (2/5 = 10 fps).
  int rate_numer = 1;
  int rate_denom = 1;
  int segments_per_frame = 1;  // horizontal strips per frame
  LineCoding coding = LineCoding::kSubsampledDpcmLine;
  int lines_per_slice = 8;
  // Transport time per compressed slice through fifo + compression engine.
  Duration per_line_cost = Micros(4);
  bool start_immediately = true;
};

class VideoCapture {
 public:
  VideoCapture(Scheduler* sched, VideoCaptureOptions options, FrameStore* store, BufferPool* pool,
               Channel<SegmentRef>* segments_out, CpuModel* cpu = nullptr,
               ReportSink* report_sink = nullptr);

  void Start(Priority priority = Priority::kLow);

  CommandChannel& commands() { return command_; }

  uint64_t frames_captured() const { return frames_captured_; }
  uint64_t segments_sent() const { return segments_sent_; }

 private:
  Process Run();
  void HandleCommand(const Command& command);
  // Compresses read_ (one strip) line by line into strip_, keeping its last
  // line as the vertical-delta reference for the next strip.
  void CompressStrip(const Rect& strip_rect, bool cross_strip);
  // Pushes the next slice of strip_ (from `*offset`, at most lines_left
  // lines) and its description; returns the slice's line count.
  int PushNextSlice(int width, int lines_left, size_t* offset);
  // Builds strip_ into frame frame_counter_'s segment number `strip`.
  void FillStripSegment(Segment* segment, int strip, const Rect& strip_rect);
  // Pushes slice_ into the compression engine; the slice that emerges
  // becomes the next slice_, so slice storage circulates.
  void PushSlice();

  Scheduler* sched_;
  VideoCaptureOptions options_;
  FrameStore* store_;
  BufferPool* pool_;
  Channel<SegmentRef>* segments_out_;
  CpuModel* cpu_;
  Reporter reporter_;
  CommandChannel command_;

  PipelinedCompressor compressor_;
  SliceHoldbackBuffer holdback_;

  // Scratch reused strip after strip: the framestore read, the compressed
  // strip, the slice being pushed, and the previous strip's last line (the
  // vertical-delta reference for the next strip's first line).
  FrameStore::ReadResult read_;
  std::vector<uint8_t> strip_;
  std::vector<uint8_t> slice_;
  std::vector<uint8_t> prev_strip_last_line_;

  bool producing_;
  int rate_accumulator_ = 0;
  uint32_t frame_counter_ = 0;  // capture's own frame numbering
  uint32_t sequence_ = 0;
  uint64_t frames_captured_ = 0;
  uint64_t segments_sent_ = 0;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_VIDEO_CAPTURE_H_
