#include "src/video/capture.h"

#include <algorithm>
#include <optional>

#include "src/runtime/check.h"

namespace pandora {

VideoCapture::VideoCapture(Scheduler* sched, VideoCaptureOptions options, FrameStore* store,
                           BufferPool* pool, Channel<SegmentRef>* segments_out, CpuModel* cpu,
                           ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      store_(store),
      pool_(pool),
      segments_out_(segments_out),
      cpu_(cpu),
      reporter_(sched, report_sink, options_.name),
      command_(sched, options_.name + ".cmd"),
      producing_(options_.start_immediately) {
  PANDORA_CHECK(options_.rate_numer >= 0 && options_.rate_denom > 0);
  PANDORA_CHECK(options_.segments_per_frame > 0);
}

void VideoCapture::Start(Priority priority) {
  PANDORA_CHECK(!started_);
  started_ = true;
  sched_->Spawn(Run(), options_.name, priority);
}

void VideoCapture::HandleCommand(const Command& command) {
  switch (command.verb) {
    case CommandVerb::kStartStream:
      producing_ = true;
      break;
    case CommandVerb::kStop:
      producing_ = false;
      break;
    case CommandVerb::kSetFrameRate:
      if (command.arg1 > 0 && command.arg0 >= 0 && command.arg0 <= command.arg1) {
        options_.rate_numer = static_cast<int>(command.arg0);
        options_.rate_denom = static_cast<int>(command.arg1);
        rate_accumulator_ = 0;
      }
      break;
    case CommandVerb::kReportStatus:
      reporter_.ReportNow("capture.status", ReportSeverity::kInfo,
                          "frames=" + std::to_string(frames_captured_) +
                              " segments=" + std::to_string(segments_sent_),
                          static_cast<int64_t>(frames_captured_));
      break;
    default:
      break;
  }
}

void VideoCapture::CompressStrip(const Rect& strip_rect, bool cross_strip) {
  const size_t width = static_cast<size_t>(strip_rect.width);
  // Room for the widest coding; trimmed to what was written below.
  strip_.resize(static_cast<size_t>(strip_rect.height) *
                CompressedLineSize(LineCoding::kRawLine, strip_rect.width));
  size_t written = 0;
  for (int line = 0; line < strip_rect.height; ++line) {
    const uint8_t* pixels = read_.pixels.data() + static_cast<size_t>(line) * width;
    LineCoding coding = options_.coding;  // self-coded: no cross-segment state
    const uint8_t* above = nullptr;
    if (line > 0) {
      above = pixels - width;
    } else if (cross_strip) {
      coding = LineCoding::kVerticalDelta;
      above = prev_strip_last_line_.data();
    }
    written += CompressLineInto(coding, pixels, strip_rect.width, above, strip_.data() + written);
  }
  strip_.resize(written);
  prev_strip_last_line_.assign(read_.pixels.end() - static_cast<ptrdiff_t>(width),
                               read_.pixels.end());
}

int VideoCapture::PushNextSlice(int width, int lines_left, size_t* offset) {
  const int slice_lines = std::min(options_.lines_per_slice, lines_left);
  size_t slice_bytes = 0;
  for (int l = 0; l < slice_lines; ++l) {
    // Sizes are deterministic per coding; header byte included.
    LineCoding lc = static_cast<LineCoding>(strip_[*offset + slice_bytes]);
    slice_bytes += CompressedLineSize(lc, width);
  }
  slice_.assign(strip_.begin() + static_cast<ptrdiff_t>(*offset),
                strip_.begin() + static_cast<ptrdiff_t>(*offset + slice_bytes));
  *offset += slice_bytes;
  PushSlice();
  holdback_.Push(SliceDesc{SliceKind::kSliceDesc, options_.stream, sequence_,
                           static_cast<uint32_t>(slice_lines), static_cast<uint32_t>(slice_bytes)});
  return slice_lines;
}

void VideoCapture::FillStripSegment(Segment* segment, int strip, const Rect& strip_rect) {
  // The Pandora segment of fig 3.2.
  VideoHeader vh;
  vh.frame_number = frame_counter_;
  vh.segments_in_frame = static_cast<uint32_t>(options_.segments_per_frame);
  vh.segment_number = static_cast<uint32_t>(strip);
  vh.x_offset = static_cast<uint32_t>(strip_rect.x);
  vh.y_offset = static_cast<uint32_t>(strip_rect.y);
  vh.pixel_format = PixelFormat::kGrey8;
  vh.compression_type = options_.coding == LineCoding::kRawLine ? VideoCoding::kRaw
                                                                : VideoCoding::kDpcmSubsampled;
  vh.x_width = static_cast<uint32_t>(strip_rect.width);
  vh.start_line_y = static_cast<uint32_t>(strip_rect.y);
  vh.line_count = static_cast<uint32_t>(strip_rect.height);
  FillVideoSegment(segment, options_.stream, sequence_++, sched_->now(), vh, strip_.data(),
                   strip_.size());
  segment->compression_args = {static_cast<uint32_t>(options_.coding)};
  segment->header.length = static_cast<uint32_t>(segment->EncodedSize());
}

void VideoCapture::PushSlice() {
  std::optional<std::vector<uint8_t>> emerged = compressor_.Push(std::move(slice_));
  slice_ = emerged.has_value() ? std::move(*emerged) : std::vector<uint8_t>();
}

Process VideoCapture::Run() {
  Time next_frame = ((sched_->now() / kFramePeriod) + 1) * kFramePeriod;
  for (;;) {
    Alt alt(sched_);
    alt.OnReceive(command_);
    alt.OnTimeout(next_frame);
    int chosen = co_await alt.Select();
    if (chosen == 0) {
      Command command = co_await command_.Receive();
      HandleCommand(command);
      continue;
    }
    next_frame += kFramePeriod;
    if (!producing_) {
      continue;
    }
    // Bresenham-style fraction of the 25Hz tick: capture when the
    // accumulator crosses the denominator.
    rate_accumulator_ += options_.rate_numer;
    if (rate_accumulator_ < options_.rate_denom) {
      continue;
    }
    rate_accumulator_ -= options_.rate_denom;
    // The frame goes out strip by strip, each strip one segment.
    const int strip_height =
        (options_.rect.height + options_.segments_per_frame - 1) / options_.segments_per_frame;
    for (int strip = 0; strip < options_.segments_per_frame; ++strip) {
      const int y0 = options_.rect.y + strip * strip_height;
      const int lines = std::min(strip_height, options_.rect.y + options_.rect.height - y0);
      if (lines <= 0) {
        break;
      }
      const Rect strip_rect{options_.rect.x, y0, options_.rect.width, lines};
      // "The reading of the blocks is carefully timed" — never tears.
      while (const std::optional<Time> clear = store_->ScanClearsAt(strip_rect)) {
        co_await sched_->WaitUntil(*clear);
      }
      store_->ReadRectangleNow(strip_rect, &read_);
      // The strip's first line self-codes on the frame's first strip; later
      // strips vertically code against the last line of the previous strip
      // (resolved by the display's line cache).
      CompressStrip(strip_rect, strip > 0 && !prev_strip_last_line_.empty());

      // Transport through the slice pipeline: descriptions over the link,
      // data through the fifo + non-draining compression engine.
      holdback_.Push(SliceDesc{SliceKind::kHeaderDesc, options_.stream, sequence_, 0, 0});
      size_t offset = 0;
      for (int lines_left = lines; lines_left > 0;) {
        const int slice_lines = PushNextSlice(strip_rect.width, lines_left, &offset);
        lines_left -= slice_lines;
        // Fifo/engine transport time for the slice.
        co_await sched_->WaitFor(static_cast<Duration>(slice_lines) * options_.per_line_cost);
      }
      holdback_.Push(SliceDesc{SliceKind::kTailDesc, options_.stream, sequence_, 0, 0});
      // Dummy flush: pushes the last real slice out of the engine; its own
      // description is held back until the next segment's data arrives.
      slice_.clear();
      PushSlice();
      holdback_.Push(SliceDesc{SliceKind::kDummyDesc, options_.stream, sequence_, 2, 0});
      co_await sched_->WaitFor(2 * options_.per_line_cost);

      if (cpu_ != nullptr) {
        co_await cpu_->Consume(Micros(20) + static_cast<Duration>(lines));
      }

      SegmentRef ref = co_await pool_->Allocate();
      FillStripSegment(ref.get(), strip, strip_rect);
      ++segments_sent_;
      co_await segments_out_->Send(std::move(ref));
    }
    if (options_.rect.height > 0) {  // an empty rectangle sends no strip
      ++frames_captured_;
    }
    ++frame_counter_;
  }
}

}  // namespace pandora
