#include "src/video/display.h"

#include <algorithm>
#include <cstring>

#include "src/runtime/check.h"

namespace pandora {

VideoDisplay::VideoDisplay(Scheduler* sched, VideoDisplayOptions options,
                           Channel<SegmentRef>* segments_in, ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      segments_in_(segments_in),
      reporter_(sched, report_sink, options_.name),
      screen_(static_cast<size_t>(options_.width) * static_cast<size_t>(options_.height), 0) {}

void VideoDisplay::Start(Priority priority) {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), options_.name, priority);
}

double VideoDisplay::MeasuredFps(StreamId stream, Duration elapsed) const {
  auto it = frames_by_stream_.find(stream);
  if (it == frames_by_stream_.end() || elapsed <= 0) {
    return 0.0;
  }
  return static_cast<double>(it->second) / ToSeconds(elapsed);
}

bool VideoDisplay::DecompressInto(const Segment& segment, Assembly* assembly) {
  const VideoHeader& vh = segment.video();
  const int width = static_cast<int>(vh.x_width);
  const int lines = static_cast<int>(vh.line_count);
  if (width < 0 || lines < 0) {
    return false;
  }
  if (assembly->part_count == assembly->parts.size()) {
    assembly->parts.emplace_back();
  }
  Part& part = assembly->parts[assembly->part_count];
  part.rect = {static_cast<int>(vh.x_offset), static_cast<int>(vh.start_line_y), width, lines};
  // Each line takes at least its subsampled size, so no more rows than the
  // payload can hold will be written; sizing by that bound keeps a damaged
  // header's line count from reserving memory the decode never reaches.
  const size_t row_bytes = static_cast<size_t>(width);
  const size_t min_line = CompressedLineSize(LineCoding::kSubsampledDpcmLine, width);
  const size_t rows = std::min(static_cast<size_t>(lines), segment.payload.size() / min_line);
  part.pixels.resize(rows * row_bytes);

  size_t offset = 0;
  for (int line = 0; line < lines; ++line) {
    if (offset >= segment.payload.size()) {
      return false;
    }
    LineCoding coding = static_cast<LineCoding>(segment.payload[offset]);
    size_t line_size = CompressedLineSize(coding, width);
    if (line_size == 0 || offset + line_size > segment.payload.size()) {
      return false;
    }
    uint8_t* row = part.pixels.data() + static_cast<size_t>(line) * row_bytes;
    const uint8_t* above = nullptr;
    if (coding == LineCoding::kVerticalDelta) {
      if (line == 0) {
        // Cross-segment vertical interpolation: reload the engine from the
        // per-stream software cache (the paper's choice 3).
        const std::vector<uint8_t>* cached = line_cache_.Fetch(segment.stream);
        if (cached == nullptr || cached->size() != row_bytes) {
          return false;  // interpolation state lost (e.g. after a gap)
        }
        above = cached->empty() ? nullptr : cached->data();
      } else if (width > 0) {
        above = row - row_bytes;
      }
    }
    if (!DecompressLineInto(segment.payload.data() + offset, line_size, width, above, row)) {
      return false;
    }
    offset += line_size;
  }
  // The last row is the interpolation state for the stream's next segment.
  const size_t last = lines > 0 ? row_bytes : 0;
  line_cache_.Store(segment.stream, part.pixels.data() + part.pixels.size() - last, last);
  ++assembly->part_count;
  return true;
}

bool VideoDisplay::AssembleSegment(const Segment& segment) {
  if (!segment.is_video()) {
    return false;
  }
  ++segments_received_;
  const VideoHeader& vh = segment.video();

  auto observation = trackers_[segment.stream].Observe(segment.header.sequence);
  if (observation.outcome == SequenceTracker::Outcome::kGap) {
    // Interpolation state is no longer trustworthy across the hole.
    line_cache_.Drop(segment.stream);
    reporter_.Report("display.gap", ReportSeverity::kWarning,
                     "missing video segments on stream " + std::to_string(segment.stream),
                     static_cast<int64_t>(observation.missing));
  } else if (observation.outcome == SequenceTracker::Outcome::kDuplicate ||
             observation.outcome == SequenceTracker::Outcome::kStale ||
             observation.outcome == SequenceTracker::Outcome::kSuspect) {
    return false;  // suspect: a likely bit-flipped header; expectation kept
  } else if (observation.outcome == SequenceTracker::Outcome::kResync) {
    // Re-anchored to a new sequence space; interpolation state is stale.
    line_cache_.Drop(segment.stream);
  }

  Assembly& assembly = assemblies_[segment.stream];
  if (assembly.have_segment.empty() || assembly.frame_number != vh.frame_number) {
    if (!assembly.have_segment.empty() &&
        assembly.segments_received < assembly.segments_expected) {
      // A new frame started before the old one completed: the old frame is
      // never displayed (no partial frames, no tears).
      ++frames_dropped_incomplete_;
      reporter_.Report("display.incomplete", ReportSeverity::kWarning,
                       "frame dropped with missing segments", assembly.frame_number);
    }
    assembly.frame_number = vh.frame_number;
    assembly.segments_expected = vh.segments_in_frame;
    assembly.segments_received = 0;
    assembly.first_segment_time = segment.source_time();
    assembly.part_count = 0;
    assembly.have_segment.assign(vh.segments_in_frame, false);
    assembly.poisoned = false;
  }
  if (vh.segment_number >= assembly.have_segment.size() ||
      assembly.have_segment[vh.segment_number]) {
    return false;
  }
  assembly.have_segment[vh.segment_number] = true;
  ++assembly.segments_received;

  if (!DecompressInto(segment, &assembly)) {
    ++undecodable_segments_;
    assembly.poisoned = true;
    reporter_.Report("display.undecodable", ReportSeverity::kError,
                     "segment thrown away: decode failed", static_cast<int64_t>(segment.stream));
  }

  if (assembly.segments_received < assembly.segments_expected) {
    return false;
  }
  if (assembly.poisoned) {
    ++frames_dropped_incomplete_;
    assembly.have_segment.clear();  // frame closed; the storage stays for the next
    return false;
  }
  return true;
}

bool VideoDisplay::BlitCrossesScan(const Assembly& assembly) const {
  // Union of rows touched.
  int top = options_.height;
  int bottom = 0;
  for (size_t i = 0; i < assembly.part_count; ++i) {
    const Rect& rect = assembly.parts[i].rect;
    top = std::min(top, rect.y);
    bottom = std::max(bottom, rect.y + rect.height);
  }
  const int scan = ScanLineAt(sched_->now());
  return scan > top && scan < bottom;
}

void VideoDisplay::BlitFrame(StreamId stream) {
  Assembly& assembly = assemblies_[stream];
  for (size_t i = 0; i < assembly.part_count; ++i) {
    const Part& part = assembly.parts[i];
    // Clip the part's columns to the screen once, then copy row spans.
    const int64_t x0 = std::max<int64_t>(part.rect.x, 0);
    const int64_t x1 = std::min<int64_t>(int64_t{part.rect.x} + part.rect.width, options_.width);
    if (x0 >= x1) {
      continue;
    }
    for (int row = 0; row < part.rect.height; ++row) {
      const int64_t y = int64_t{part.rect.y} + row;
      if (y < 0 || y >= options_.height) {
        continue;
      }
      std::memcpy(screen_.data() + y * options_.width + x0,
                  part.pixels.data() + static_cast<size_t>(row) * part.rect.width +
                      (x0 - part.rect.x),
                  static_cast<size_t>(x1 - x0));
    }
  }
  ++frames_displayed_;
  ++frames_by_stream_[stream];
  frame_latency_.Add(static_cast<double>(sched_->now() - assembly.first_segment_time));
  assembly.have_segment.clear();  // frame closed; the storage stays for the next
}

Process VideoDisplay::Run() {
  for (;;) {
    SegmentRef ref = co_await segments_in_->Receive();
    if (!AssembleSegment(*ref)) {
      continue;
    }
    const StreamId stream = ref->stream;
    if (!options_.scan_aware_copy && BlitCrossesScan(assemblies_[stream])) {
      // A naive blit lands wherever the scan happens to be: if the scan is
      // sweeping the region's rows, part of the old frame is still being
      // shown below it while we overwrite above — a visible tear.
      ++tears_;
      reporter_.Report("display.tear", ReportSeverity::kWarning, "blit crossed the display scan",
                       static_cast<int64_t>(stream));
    }
    // Scan-aware copy needs no waiting: "the ability to schedule processes
    // with precisions of a few microseconds allows us to make full use of
    // our knowledge of the display scan, copying frames both in front of
    // and behind the scan" — every row is written either after the scan
    // passed it or before the scan reaches it, so the copy never tears.
    co_await sched_->WaitFor(options_.copy_duration);
    BlitFrame(stream);
  }
}

}  // namespace pandora
