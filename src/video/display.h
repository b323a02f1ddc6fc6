// VideoDisplay: decompression, frame assembly and tear-free display
// (section 3.6, mixer board).
//
// "We do not display any part of a video frame until all of the segments
// have been received, otherwise the effect of a tear can be seen when part
// of the image is moving parallel to a segment boundary.  Once we have all
// the data for a frame, it is copied into the display frame buffer as soon
// as possible, care being taken to avoid the scan of the display
// controller, as this can also lead to tears."
//
// Decompression keeps a software cache of the last line processed on each
// stream (dpcm.h, LastLineCache) and reloads the interpolation state
// whenever arriving segments interleave streams.
#ifndef PANDORA_SRC_VIDEO_DISPLAY_H_
#define PANDORA_SRC_VIDEO_DISPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/stats.h"
#include "src/segment/sequence.h"
#include "src/video/dpcm.h"
#include "src/video/framestore.h"

namespace pandora {

struct VideoDisplayOptions {
  std::string name = "video.display";
  int width = 320;
  int height = 240;
  // Avoid the display controller's scan when copying (true in Pandora;
  // false quantifies the tears that careful timing prevents — bench E14).
  bool scan_aware_copy = true;
  // Wall time the blit of one frame region takes.
  Duration copy_duration = Micros(500);
};

class VideoDisplay {
 public:
  VideoDisplay(Scheduler* sched, VideoDisplayOptions options, Channel<SegmentRef>* segments_in,
               ReportSink* report_sink = nullptr);

  void Start(Priority priority = Priority::kHigh);

  // The visible screen (row-major width x height).
  const std::vector<uint8_t>& screen() const { return screen_; }

  // Display-controller scan line at time t (40ms refresh, top to bottom).
  int ScanLineAt(Time t) const {
    return static_cast<int>((t % kFramePeriod) * options_.height / kFramePeriod);
  }

  uint64_t segments_received() const { return segments_received_; }
  uint64_t frames_displayed() const { return frames_displayed_; }
  uint64_t frames_dropped_incomplete() const { return frames_dropped_incomplete_; }
  uint64_t undecodable_segments() const { return undecodable_segments_; }
  uint64_t tears() const { return tears_; }
  uint64_t cache_reloads() const { return line_cache_.reloads(); }

  // Frame latency: display time minus the frame's first segment timestamp.
  const StatAccumulator& frame_latency() const { return frame_latency_; }
  // Measured display rate for one stream over the run (frames/sec).
  double MeasuredFps(StreamId stream, Duration elapsed) const;

 private:
  struct Part {
    Rect rect;
    std::vector<uint8_t> pixels;
  };
  // One stream's in-flight frame.  The storage outlives the frame: the
  // next frame on the stream overwrites the parts (and their pixel
  // buffers) in place.
  struct Assembly {
    uint32_t frame_number = 0;
    uint32_t segments_expected = 0;
    uint32_t segments_received = 0;
    Time first_segment_time = 0;
    std::vector<Part> parts;  // the first part_count are this frame's
    size_t part_count = 0;
    std::vector<bool> have_segment;  // empty: no frame in flight
    bool poisoned = false;           // an undecodable segment: never display
  };

  Process Run();
  // Files one segment into its stream's assembly; true when it completed a
  // frame that can be displayed.  A frame with an undecodable segment is
  // closed and counted here, never displayed.
  bool AssembleSegment(const Segment& segment);
  bool DecompressInto(const Segment& segment, Assembly* assembly);
  // Whether a naive blit of the frame now would cross the display scan.
  bool BlitCrossesScan(const Assembly& assembly) const;
  // Copies the stream's completed frame onto the screen and closes it.
  void BlitFrame(StreamId stream);

  Scheduler* sched_;
  VideoDisplayOptions options_;
  Channel<SegmentRef>* segments_in_;
  Reporter reporter_;

  std::vector<uint8_t> screen_;
  LastLineCache line_cache_;
  std::map<StreamId, Assembly> assemblies_;  // one in-flight frame per stream
  std::map<StreamId, SequenceTracker> trackers_;
  std::map<StreamId, uint64_t> frames_by_stream_;

  uint64_t segments_received_ = 0;
  uint64_t frames_displayed_ = 0;
  uint64_t frames_dropped_incomplete_ = 0;
  uint64_t undecodable_segments_ = 0;
  uint64_t tears_ = 0;
  StatAccumulator frame_latency_;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_VIDEO_DISPLAY_H_
