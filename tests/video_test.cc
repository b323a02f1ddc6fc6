// Tests for the video subsystem: DPCM line coding, the framestore scan
// model, the slice pipeline with its hold-back buffer, capture at
// fractional frame rates, and tear-free display (paper sections 3.3, 3.6).
#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/pool.h"
#include "src/control/report.h"
#include "src/runtime/scheduler.h"
#include "src/video/capture.h"
#include "src/video/display.h"
#include "src/video/dpcm.h"
#include "src/video/framestore.h"
#include "src/video/pipeline.h"

namespace pandora {
namespace {

std::vector<uint8_t> SmoothLine(int width) {
  std::vector<uint8_t> line(static_cast<size_t>(width));
  for (int i = 0; i < width; ++i) {
    line[static_cast<size_t>(i)] = static_cast<uint8_t>(100 + (i % 7));
  }
  return line;
}

TEST(DpcmTest, RawAndDpcmAreLossless) {
  auto line = SmoothLine(64);
  for (LineCoding coding : {LineCoding::kRawLine, LineCoding::kDpcmLine}) {
    auto bytes = CompressLine(coding, line.data(), 64);
    EXPECT_EQ(bytes.size(), CompressedLineSize(coding, 64));
    auto decoded = DecompressLine(bytes, 64);
    ASSERT_TRUE(decoded.ok);
    EXPECT_EQ(decoded.pixels, line);
  }
}

TEST(DpcmTest, SubsampleHalvesSizeAndInterpolatesClose) {
  auto line = SmoothLine(64);
  auto bytes = CompressLine(LineCoding::kSubsampledDpcmLine, line.data(), 64);
  EXPECT_EQ(bytes.size(), 1u + 32u);
  auto decoded = DecompressLine(bytes, 64);
  ASSERT_TRUE(decoded.ok);
  for (int i = 0; i < 63; ++i) {
    EXPECT_NEAR(decoded.pixels[static_cast<size_t>(i)], line[static_cast<size_t>(i)], 4)
        << "i=" << i;
  }
  // The final odd pixel has no right neighbour: it replicates the left one.
  EXPECT_EQ(decoded.pixels[63], decoded.pixels[62]);
}

TEST(DpcmTest, VerticalDeltaNeedsTheLineAbove) {
  auto above = SmoothLine(32);
  std::vector<uint8_t> line(32);
  for (int i = 0; i < 32; ++i) {
    line[static_cast<size_t>(i)] = static_cast<uint8_t>(above[static_cast<size_t>(i)] + 3);
  }
  auto bytes = CompressLine(LineCoding::kVerticalDelta, line.data(), 32, above.data());
  auto with = DecompressLine(bytes, 32, above.data());
  ASSERT_TRUE(with.ok);
  EXPECT_EQ(with.pixels, line);
  // Without the interpolation state the line is undecodable — this is the
  // failure the per-stream cache prevents.
  auto without = DecompressLine(bytes, 32);
  EXPECT_FALSE(without.ok);
}

TEST(DpcmTest, RejectsTruncatedAndWrongSizedLines) {
  auto line = SmoothLine(16);
  auto bytes = CompressLine(LineCoding::kDpcmLine, line.data(), 16);
  bytes.pop_back();
  EXPECT_FALSE(DecompressLine(bytes, 16).ok);
  EXPECT_FALSE(DecompressLine({}, 16).ok);
}

TEST(DpcmTest, IntoCodecsMatchTheWrappers) {
  for (int width : {1, 7, 33, 64}) {
    std::vector<uint8_t> line(static_cast<size_t>(width));
    std::vector<uint8_t> above(static_cast<size_t>(width));
    for (int i = 0; i < width; ++i) {
      line[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 37 + 11);
      above[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 13 + 5);
    }
    for (LineCoding coding : {LineCoding::kRawLine, LineCoding::kDpcmLine,
                              LineCoding::kSubsampledDpcmLine, LineCoding::kVerticalDelta}) {
      SCOPED_TRACE(::testing::Message() << "width " << width << " coding "
                                        << static_cast<int>(coding));
      const std::vector<uint8_t> wrapped = CompressLine(coding, line.data(), width, above.data());
      // One guard byte past the coded line must stay untouched.
      std::vector<uint8_t> into(CompressedLineSize(coding, width) + 1, 0xEE);
      ASSERT_EQ(CompressLineInto(coding, line.data(), width, above.data(), into.data()),
                wrapped.size());
      EXPECT_TRUE(std::equal(wrapped.begin(), wrapped.end(), into.begin()));
      EXPECT_EQ(into.back(), 0xEE);

      const uint8_t* missing = nullptr;
      for (const uint8_t* reference : {static_cast<const uint8_t*>(above.data()), missing}) {
        const DecompressedLine decoded = DecompressLine(wrapped, width, reference);
        std::vector<uint8_t> out(static_cast<size_t>(width) + 1, 0xEE);
        const bool ok =
            DecompressLineInto(wrapped.data(), wrapped.size(), width, reference, out.data());
        EXPECT_EQ(ok, decoded.ok);
        // Only vertical delta needs the line above.
        EXPECT_EQ(ok, reference != nullptr || coding != LineCoding::kVerticalDelta);
        if (ok) {
          EXPECT_TRUE(std::equal(decoded.pixels.begin(), decoded.pixels.end(), out.begin()));
          EXPECT_EQ(out.back(), 0xEE);
        } else {
          EXPECT_TRUE(decoded.pixels.empty());
        }
      }
    }
  }
}

// Scalar reference codecs: the line loops as first written, one pixel at a
// time with an explicit predictor.  The production kernels in
// src/video/dpcm.cc are restructured for the vectorizer and must stay
// byte-for-byte equal to these.
void ReferenceCompress(LineCoding coding, const uint8_t* pixels, int width, const uint8_t* above,
                       uint8_t* out) {
  out[0] = static_cast<uint8_t>(coding);
  uint8_t* residuals = out + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      for (int i = 0; i < width; ++i) {
        residuals[i] = pixels[i];
      }
      break;
    case LineCoding::kDpcmLine: {
      uint8_t prediction = 0;
      for (int i = 0; i < width; ++i) {
        residuals[i] = static_cast<uint8_t>(pixels[i] - prediction);
        prediction = pixels[i];
      }
      break;
    }
    case LineCoding::kSubsampledDpcmLine: {
      uint8_t prediction = 0;
      for (int i = 0, j = 0; i < width; i += 2, ++j) {
        residuals[j] = static_cast<uint8_t>(pixels[i] - prediction);
        prediction = pixels[i];
      }
      break;
    }
    case LineCoding::kVerticalDelta:
      for (int i = 0; i < width; ++i) {
        residuals[i] = static_cast<uint8_t>(pixels[i] - above[i]);
      }
      break;
  }
}

bool ReferenceDecompress(const uint8_t* bytes, size_t size, int width, const uint8_t* above,
                         uint8_t* out) {
  if (size == 0) {
    return false;
  }
  LineCoding coding = static_cast<LineCoding>(bytes[0]);
  if (size != CompressedLineSize(coding, width)) {
    return false;
  }
  const uint8_t* residuals = bytes + 1;
  switch (coding) {
    case LineCoding::kRawLine:
      for (int i = 0; i < width; ++i) {
        out[i] = residuals[i];
      }
      return true;
    case LineCoding::kDpcmLine: {
      uint8_t value = 0;
      for (int i = 0; i < width; ++i) {
        value = static_cast<uint8_t>(value + residuals[i]);
        out[i] = value;
      }
      return true;
    }
    case LineCoding::kSubsampledDpcmLine: {
      uint8_t value = 0;
      for (int i = 0, j = 0; i < width; i += 2, ++j) {
        value = static_cast<uint8_t>(value + residuals[j]);
        out[i] = value;
      }
      for (int i = 1; i < width; i += 2) {
        int left = out[i - 1];
        int right = (i + 1 < width) ? out[i + 1] : left;
        out[i] = static_cast<uint8_t>((left + right) / 2);
      }
      return true;
    }
    case LineCoding::kVerticalDelta:
      if (above == nullptr) {
        return false;
      }
      for (int i = 0; i < width; ++i) {
        out[i] = static_cast<uint8_t>(above[i] + residuals[i]);
      }
      return true;
  }
  return false;
}

TEST(DpcmTest, KernelsMatchScalarReference) {
  constexpr int kMaxWidth = 300;
  constexpr int kTrialsPerWidth = 100;
  constexpr size_t kGuard = 16;
  constexpr uint8_t kFill = 0xEE;
  std::mt19937 gen(20260917);
  auto random_bytes = [&gen](std::vector<uint8_t>* v, size_t n) {
    v->resize(n);
    for (uint8_t& b : *v) {
      b = static_cast<uint8_t>(gen());
    }
  };
  std::vector<uint8_t> pixels;
  std::vector<uint8_t> above;
  std::vector<uint8_t> coded;
  std::vector<uint8_t> want;
  std::vector<uint8_t> got;
  for (LineCoding coding : {LineCoding::kRawLine, LineCoding::kDpcmLine,
                            LineCoding::kSubsampledDpcmLine, LineCoding::kVerticalDelta}) {
    for (int width = 0; width <= kMaxWidth; ++width) {
      const size_t size = CompressedLineSize(coding, width);
      const size_t pixel_bytes = static_cast<size_t>(width);
      for (int trial = 0; trial < kTrialsPerWidth; ++trial) {
        // Compress: random pixels and a random line above; the guard bytes
        // past the coded line must come through untouched.
        random_bytes(&pixels, pixel_bytes);
        random_bytes(&above, pixel_bytes);
        want.assign(size + kGuard, kFill);
        got.assign(size + kGuard, kFill);
        ReferenceCompress(coding, pixels.data(), width, above.data(), want.data());
        ASSERT_EQ(CompressLineInto(coding, pixels.data(), width, above.data(), got.data()), size);
        ASSERT_EQ(got, want) << "compress coding " << static_cast<int>(coding) << " width "
                             << width << " trial " << trial;

        // Decompress: random residuals behind the coding byte, decoded with
        // and without the line above, at the right size and at sizes the
        // decoder must reject without writing.
        random_bytes(&coded, size);
        coded[0] = static_cast<uint8_t>(coding);
        const size_t sizes[] = {size, size - 1, size + 1, 0};
        for (size_t coded_size : sizes) {
          coded.resize(std::max(coded.size(), coded_size), 0);
          for (const uint8_t* reference :
               {static_cast<const uint8_t*>(above.data()), static_cast<const uint8_t*>(nullptr)}) {
            want.assign(pixel_bytes + kGuard, kFill);
            got.assign(pixel_bytes + kGuard, kFill);
            const bool want_ok =
                ReferenceDecompress(coded.data(), coded_size, width, reference, want.data());
            const bool got_ok =
                DecompressLineInto(coded.data(), coded_size, width, reference, got.data());
            ASSERT_EQ(got_ok, want_ok) << "decompress coding " << static_cast<int>(coding)
                                       << " width " << width << " size " << coded_size;
            ASSERT_EQ(got, want) << "decompress coding " << static_cast<int>(coding)
                                 << " width " << width << " size " << coded_size << " trial "
                                 << trial;
          }
        }
      }
    }
  }
  // An unknown coding byte is rejected at every size.
  random_bytes(&coded, 65);
  coded[0] = 4;
  got.assign(64, kFill);
  EXPECT_FALSE(DecompressLineInto(coded.data(), coded.size(), 64, nullptr, got.data()));
  EXPECT_EQ(got, std::vector<uint8_t>(64, kFill));
}

TEST(LastLineCacheTest, PointerStoreReusesTheCachedLine) {
  LastLineCache cache;
  const std::vector<uint8_t> wide = SmoothLine(16);
  cache.Store(1, wide.data(), wide.size());
  const uint8_t* storage = cache.Fetch(1)->data();
  const std::vector<uint8_t> narrow = SmoothLine(8);
  cache.Store(1, narrow.data(), narrow.size());
  ASSERT_NE(cache.Fetch(1), nullptr);
  EXPECT_EQ(*cache.Fetch(1), narrow);
  EXPECT_EQ(cache.Fetch(1)->data(), storage);
}

TEST(LastLineCacheTest, CountsInterleaveReloads) {
  LastLineCache cache;
  cache.Store(1, SmoothLine(8));
  cache.Store(2, SmoothLine(8));
  EXPECT_NE(cache.Fetch(1), nullptr);  // reload 1 (first use)
  EXPECT_NE(cache.Fetch(1), nullptr);  // same stream: no reload
  EXPECT_NE(cache.Fetch(2), nullptr);  // interleave: reload 2
  EXPECT_NE(cache.Fetch(1), nullptr);  // interleave back: reload 3
  EXPECT_EQ(cache.reloads(), 3u);
  cache.Drop(1);
  EXPECT_EQ(cache.Fetch(1), nullptr);  // dropped state is gone
}

TEST(FrameStoreTest, ScanAdvancesThroughFramePeriod) {
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  EXPECT_EQ(store.FrameAt(0), 0u);
  EXPECT_EQ(store.ScanLineAt(0), 0);
  EXPECT_EQ(store.ScanLineAt(Millis(20)), 24);  // halfway through 40ms
  EXPECT_EQ(store.FrameAt(Millis(40)), 1u);
  EXPECT_EQ(store.ScanLineAt(Millis(40)), 0);
}

TEST(FrameStoreTest, ImmediateReadTearsWhenScanInsideRows) {
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  sched.RunFor(Millis(20));  // scan at line 24
  FrameStore::ReadResult read;
  store.ReadRectangleNow({0, 16, 64, 16}, &read);  // rows 16..32 straddle
  EXPECT_TRUE(read.torn);
  store.ReadRectangleNow({0, 32, 64, 8}, &read);  // fully below scan
  EXPECT_FALSE(read.torn);
  EXPECT_EQ(read.pixels.size(), 64u * 8u);
}

TEST(FrameStoreTest, FillRowMatchesPixelAt) {
  // The default 8-pixel bar moves 4 pixels a frame across 64: frames 14-17
  // carry it over the right edge and back in at x = 0.  The other patterns
  // cover widths that are not a multiple of the 64-level gradient, bars
  // wider than the step (and than the pattern), single-pixel bars and no bar.
  struct Case {
    int pattern_width;
    int bar_width;
    int step;
  };
  for (const Case& c : {Case{64, 8, 4}, Case{37, 8, 4}, Case{100, 20, 3}, Case{352, 16, 7},
                        Case{64, 1, 5}, Case{48, 80, 5}, Case{200, 0, 9}}) {
    const MovingBarPattern pattern(c.pattern_width, c.bar_width, c.step);
    for (uint32_t frame : {0u, 1u, 14u, 15u, 16u, 17u, 33u, 1000u}) {
      for (int x : {0, 3, 40, 57, c.pattern_width - 1}) {
        for (int y : {0, 5, 47, 130}) {
          // Rows running to the right edge and rows stopping short of it.
          for (int width : {c.pattern_width - x, (c.pattern_width - x) / 2, 1, 0}) {
            if (x >= c.pattern_width || width < 0) {
              continue;
            }
            std::vector<uint8_t> row(static_cast<size_t>(width) + 1, 0xEE);
            pattern.FillRow(frame, x, y, width, row.data());
            for (int i = 0; i < width; ++i) {
              ASSERT_EQ(row[static_cast<size_t>(i)], pattern.PixelAt(frame, x + i, y))
                  << "pattern " << c.pattern_width << "/" << c.bar_width << "/" << c.step
                  << " frame " << frame << " x " << x + i << " y " << y << " width " << width;
            }
            EXPECT_EQ(row.back(), 0xEE) << "FillRow wrote past its width";
          }
        }
      }
    }
  }
}

TEST(FrameStoreTest, RowWiseReadMatchesThePerPixelScanModel) {
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  sched.RunFor(Millis(60));  // camera writing frame 1, scan at line 24
  FrameStore::ReadResult read;
  read.pixels.assign(4096, 0xEE);  // stale contents from an earlier read
  store.ReadRectangleNow({5, 10, 50, 30}, &read);
  ASSERT_EQ(read.pixels.size(), 50u * 30u);
  for (int row = 0; row < 30; ++row) {
    const int y = 10 + row;
    const uint32_t frame = y < 24 ? 1 : 0;  // rows above the scan are new
    for (int col = 0; col < 50; ++col) {
      ASSERT_EQ(read.pixels[static_cast<size_t>(row) * 50 + static_cast<size_t>(col)],
                pattern.PixelAt(frame, 5 + col, y))
          << "row " << row << " col " << col;
    }
  }
  EXPECT_TRUE(read.torn);
  EXPECT_EQ(read.frame, 1u);
}

TEST(FrameStoreTest, SafeReadWaitsForScanToClear) {
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  ShutdownGuard guard(&sched);
  FrameStore::ReadResult result;
  bool done = false;
  auto reader = [](Scheduler* s, FrameStore* store, FrameStore::ReadResult* out,
                   bool* done) -> Process {
    co_await s->WaitUntil(Millis(20));  // scan at line 24, inside rows 16..32
    const Rect rect{0, 16, 64, 16};
    while (const std::optional<Time> clear = store->ScanClearsAt(rect)) {
      co_await s->WaitUntil(*clear);
    }
    store->ReadRectangleNow(rect, out);
    *done = true;
  };
  sched.Spawn(reader(&sched, &store, &result, &done), "reader");
  sched.RunFor(Millis(60));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.torn);
  EXPECT_GE(store.safe_waits(), 1u);
}

TEST(PipelineTest, CompressorHoldsOneSlice) {
  PipelinedCompressor engine;
  EXPECT_FALSE(engine.Push({1, 2, 3}).has_value());  // swallowed
  auto out = engine.Push({4, 5});
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, (std::vector<uint8_t>{1, 2, 3}));
  // Dummy data flushes the last real slice.
  auto flushed = engine.Push({});
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(*flushed, (std::vector<uint8_t>{4, 5}));
}

TEST(PipelineTest, HoldbackBufferRetainsLastSliceAndFollowers) {
  SliceHoldbackBuffer buffer;
  // Header before any slice passes straight through.
  auto released = buffer.Push({SliceKind::kHeaderDesc, 1, 0, 0, 0});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].kind, SliceKind::kHeaderDesc);

  // First slice is held.
  EXPECT_TRUE(buffer.Push({SliceKind::kSliceDesc, 1, 0, 8, 100}).empty());
  // The tail queues behind the held slice.
  EXPECT_TRUE(buffer.Push({SliceKind::kTailDesc, 1, 0, 0, 0}).empty());
  ASSERT_EQ(buffer.held().size(), 2u);

  // A dummy (new data entering the pipe) releases the slice + tail, and is
  // itself held — the server must not read dummy lines still in the pipe.
  released = buffer.Push({SliceKind::kDummyDesc, 1, 0, 2, 0});
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].kind, SliceKind::kSliceDesc);
  EXPECT_EQ(released[1].kind, SliceKind::kTailDesc);
  ASSERT_EQ(buffer.held().size(), 1u);
  EXPECT_EQ(buffer.held()[0].kind, SliceKind::kDummyDesc);

  // Next segment's first slice flushes the dummy through.
  released = buffer.Push({SliceKind::kSliceDesc, 1, 1, 8, 100});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].kind, SliceKind::kDummyDesc);
}

TEST(PipelineTest, SeveralSlicesInTransitForConcurrency) {
  SliceHoldbackBuffer buffer;
  buffer.Push({SliceKind::kSliceDesc, 1, 0, 8, 100});
  auto r1 = buffer.Push({SliceKind::kSliceDesc, 1, 0, 8, 100});
  auto r2 = buffer.Push({SliceKind::kSliceDesc, 1, 0, 8, 100});
  // Each new slice releases exactly the previous one: a window of one slice
  // held, others flowing.
  EXPECT_EQ(r1.size(), 1u);
  EXPECT_EQ(r2.size(), 1u);
}

// --- Capture -> Display integration ------------------------------------------

struct VideoRig {
  explicit VideoRig(VideoCaptureOptions capture_options, bool scan_aware = true)
      : pattern(64),
        store(&sched, &pattern, 64, 48),
        pool(&sched, "pool", 64),
        wire(&sched, "wire"),
        capture(&sched, std::move(capture_options), &store, &pool, &wire),
        display(&sched,
                {.name = "disp", .width = 64, .height = 48, .scan_aware_copy = scan_aware},
                &wire, &reports) {}

  void Start() {
    capture.Start();
    display.Start();
  }

  Scheduler sched;
  ReportCollector reports;
  MovingBarPattern pattern;
  FrameStore store;
  BufferPool pool;
  Channel<SegmentRef> wire;
  VideoCapture capture;
  VideoDisplay display;
  ShutdownGuard guard{&sched};
};

VideoCaptureOptions BasicCapture(StreamId stream, int numer, int denom, int segments) {
  VideoCaptureOptions options;
  options.name = "cap" + std::to_string(stream);
  options.stream = stream;
  options.rect = {0, 0, 64, 48};
  options.rate_numer = numer;
  options.rate_denom = denom;
  options.segments_per_frame = segments;
  options.coding = LineCoding::kDpcmLine;  // lossless: exact comparison
  return options;
}

TEST(VideoRigTest, FullRateCaptureDisplaysEveryFrame) {
  VideoRig rig(BasicCapture(1, 1, 1, 4));
  rig.Start();
  rig.sched.RunFor(Seconds(2));
  // 25 fps over 2s with a little pipeline latency.
  EXPECT_GE(rig.capture.frames_captured(), 48u);
  EXPECT_GE(rig.display.frames_displayed(), 47u);
  EXPECT_EQ(rig.display.frames_dropped_incomplete(), 0u);
  EXPECT_EQ(rig.display.undecodable_segments(), 0u);
  EXPECT_EQ(rig.display.tears(), 0u);
  EXPECT_NEAR(rig.display.MeasuredFps(1, Seconds(2)), 25.0, 1.5);
}

TEST(VideoRigTest, DisplayedPixelsMatchTheCameraPattern) {
  VideoRig rig(BasicCapture(1, 1, 1, 3));
  rig.Start();
  rig.sched.RunFor(Millis(500));
  ASSERT_GT(rig.display.frames_displayed(), 0u);
  // The screen holds some complete recent frame; find which frame by
  // matching the bar position, then demand a pixel-exact match.
  const auto& screen = rig.display.screen();
  bool matched = false;
  for (uint32_t frame = 0; frame < 14 && !matched; ++frame) {
    bool all = true;
    for (int y = 0; y < 48 && all; ++y) {
      for (int x = 0; x < 64 && all; ++x) {
        if (screen[static_cast<size_t>(y) * 64 + static_cast<size_t>(x)] !=
            rig.pattern.PixelAt(frame, x, y)) {
          all = false;
        }
      }
    }
    matched = all;
  }
  EXPECT_TRUE(matched) << "screen does not equal any recent camera frame";
}

TEST(VideoRigTest, FractionalFrameRateGivesRequestedAverage) {
  // "For example, 2/5 gives an average of 10 frames per second."
  VideoRig rig(BasicCapture(1, 2, 5, 2));
  rig.Start();
  rig.sched.RunFor(Seconds(2));
  EXPECT_NEAR(static_cast<double>(rig.capture.frames_captured()) / 2.0, 10.0, 1.0);
  EXPECT_NEAR(rig.display.MeasuredFps(1, Seconds(2)), 10.0, 1.0);
}

TEST(VideoRigTest, FrameRateCommandChangesRateMidStream) {
  VideoRig rig(BasicCapture(1, 1, 1, 2));
  rig.Start();
  auto commander = [](Scheduler* s, CommandChannel* cmd) -> Process {
    co_await s->WaitUntil(Seconds(1));
    co_await cmd->Send(Command{CommandVerb::kSetFrameRate, 1, 1, 5});  // -> 5 fps
  };
  rig.sched.Spawn(commander(&rig.sched, &rig.capture.commands()), "commander");
  rig.sched.RunFor(Seconds(1));
  uint64_t first_second = rig.capture.frames_captured();
  rig.sched.RunFor(Seconds(1));
  uint64_t second_second = rig.capture.frames_captured() - first_second;
  EXPECT_GE(first_second, 23u);
  EXPECT_NEAR(static_cast<double>(second_second), 5.0, 1.0);
}

TEST(VideoRigTest, LostSegmentDropsWholeFrameNeverPartial) {
  // Principle of 3.6: no partial frames.  Drop one mid-frame segment; that
  // frame must vanish entirely and later frames recover.
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  BufferPool pool(&sched, "pool", 64);
  Channel<SegmentRef> from_capture(&sched, "cap.out");
  Channel<SegmentRef> to_display(&sched, "disp.in");
  VideoCapture capture(&sched, BasicCapture(1, 1, 1, 4), &store, &pool, &from_capture);
  ReportCollector reports;
  VideoDisplay display(&sched, {.name = "disp", .width = 64, .height = 48}, &to_display,
                       &reports);
  ShutdownGuard guard(&sched);

  auto lossy = [](Channel<SegmentRef>* in, Channel<SegmentRef>* out) -> Process {
    uint64_t n = 0;
    for (;;) {
      SegmentRef ref = co_await in->Receive();
      if (++n % 13 == 0) {
        continue;  // drop
      }
      co_await out->Send(std::move(ref));
    }
  };
  capture.Start();
  display.Start();
  sched.Spawn(lossy(&from_capture, &to_display), "lossy");
  sched.RunFor(Seconds(2));

  EXPECT_GT(display.frames_dropped_incomplete() + display.undecodable_segments(), 0u);
  EXPECT_GT(display.frames_displayed(), 20u);  // most frames still shown
  // Complete-frame accounting: displayed + dropped ≈ captured.
  EXPECT_LE(display.frames_displayed(), capture.frames_captured());
}

TEST(VideoRigTest, InterleavedStreamsReloadTheLineCache) {
  Scheduler sched;
  MovingBarPattern pattern(64);
  FrameStore store(&sched, &pattern, 64, 48);
  BufferPool pool(&sched, "pool", 128);
  Channel<SegmentRef> wire(&sched, "wire");
  VideoCapture cap1(&sched, BasicCapture(1, 1, 1, 4), &store, &pool, &wire);
  VideoCapture cap2(&sched, BasicCapture(2, 1, 1, 4), &store, &pool, &wire);
  VideoDisplay display(&sched, {.name = "disp", .width = 64, .height = 48}, &wire);
  ShutdownGuard guard(&sched);
  cap1.Start();
  cap2.Start();
  display.Start();
  sched.RunFor(Seconds(1));
  // Both streams display, and the interleaving forced cache reloads far in
  // excess of the two first-use reloads.
  EXPECT_GT(display.MeasuredFps(1, Seconds(1)), 20.0);
  EXPECT_GT(display.MeasuredFps(2, Seconds(1)), 20.0);
  EXPECT_GT(display.cache_reloads(), 40u);
  EXPECT_EQ(display.undecodable_segments(), 0u);
}

TEST(VideoRigTest, DamagedLineCountIsUndecodableWithoutSizingForIt) {
  // A header claiming 2^30 lines over a two-line payload: the display must
  // reject it after the payload runs out, sizing its rows by what the
  // payload can hold rather than by the claimed geometry.
  Scheduler sched;
  BufferPool pool(&sched, "pool", 4);
  Channel<SegmentRef> wire(&sched, "wire");
  VideoDisplay display(&sched, {.name = "disp", .width = 64, .height = 48}, &wire);
  ShutdownGuard guard(&sched);
  display.Start();
  auto sender = [](BufferPool* pool, Channel<SegmentRef>* out) -> Process {
    const std::vector<uint8_t> line = SmoothLine(64);
    std::vector<uint8_t> data = CompressLine(LineCoding::kDpcmLine, line.data(), 64);
    const std::vector<uint8_t> second = CompressLine(LineCoding::kDpcmLine, line.data(), 64);
    data.insert(data.end(), second.begin(), second.end());
    VideoHeader vh;
    vh.x_width = 64;
    vh.line_count = 1u << 30;
    SegmentRef ref = co_await pool->Allocate();
    FillVideoSegment(ref.get(), 1, 0, 0, vh, data.data(), data.size());
    co_await out->Send(std::move(ref));
  };
  sched.Spawn(sender(&pool, &wire), "sender");
  sched.RunFor(Millis(10));
  EXPECT_EQ(display.segments_received(), 1u);
  EXPECT_EQ(display.undecodable_segments(), 1u);
  EXPECT_EQ(display.frames_displayed(), 0u);
}

TEST(VideoRigTest, ScanUnawareCopyTears) {
  // Slow the slice transport so complete frames arrive mid-scan: the blit
  // then lands while the display controller is sweeping the region.
  VideoCaptureOptions slow = BasicCapture(1, 1, 1, 2);
  slow.per_line_cost = Micros(100);

  VideoRig aware(slow, /*scan_aware=*/true);
  aware.Start();
  aware.sched.RunFor(Seconds(1));
  EXPECT_EQ(aware.display.tears(), 0u);
  EXPECT_GT(aware.display.frames_displayed(), 20u);

  VideoRig naive(slow, /*scan_aware=*/false);
  naive.Start();
  naive.sched.RunFor(Seconds(1));
  EXPECT_GT(naive.display.tears(), 0u);
}

}  // namespace
}  // namespace pandora
