#include "replay.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc_counter.h"
#include "src/audio/mix_kernels.h"
#include "src/buffer/clawback.h"
#include "src/segment/audio_block.h"
#include "src/segment/segment.h"
#include "src/segment/wire.h"
#include "src/video/dpcm.h"

namespace worldbench {

namespace {

using pandora::kAudioBlockSamples;

// Keeps results observable so the timed calls are not folded away.
volatile uint64_t g_sink = 0;

struct OpCost {
  double ns = 0.0;
  double allocs = 0.0;
};

// Median ns/op over five batches of `iters` calls of `op(i)`, plus the
// allocations per call of the last batch.
template <typename Op>
OpCost TimeOp(SpanRecorder* spans, const char* name, int iters, Op op) {
  ScopedSpan span(spans, name);
  for (int i = 0; i < iters / 4; ++i) {
    op(i);  // warm caches and any lazily grown scratch
  }
  std::vector<double> batches;
  uint64_t allocs = 0;
  for (int b = 0; b < 5; ++b) {
    const uint64_t a0 = AllocCount();
    const int64_t t0 = WallNs();
    for (int i = 0; i < iters; ++i) {
      op(i);
    }
    batches.push_back(static_cast<double>(WallNs() - t0) / iters);
    allocs = AllocCount() - a0;
  }
  std::sort(batches.begin(), batches.end());
  return OpCost{batches[2], static_cast<double>(allocs) / iters};
}

pandora::Segment AudioSegment(uint32_t seq) {
  std::vector<uint8_t> samples(2 * pandora::kAudioBlockBytes);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<uint8_t>(seq * 31 + i * 7);
  }
  pandora::Segment s = pandora::MakeAudioSegment(7, seq, pandora::Millis(4) * seq, samples);
  s.header.length = static_cast<uint32_t>(s.EncodedSize());
  return s;
}

constexpr int kWidth = 64;
constexpr int kStripLines = 24;

std::vector<uint8_t> Pixels() {
  std::vector<uint8_t> px(static_cast<size_t>(kWidth) * kStripLines);
  for (size_t i = 0; i < px.size(); ++i) {
    px[i] = static_cast<uint8_t>((i % kWidth) * 3 + (i / kWidth) * 5);
  }
  return px;
}

// A strip the way VideoCapture codes it: first line self-coded DPCM, the
// rest DPCM against the previous pixel.
pandora::Segment VideoSegment(const std::vector<uint8_t>& px) {
  std::vector<uint8_t> data;
  for (int line = 0; line < kStripLines; ++line) {
    std::vector<uint8_t> c = pandora::CompressLine(
        pandora::LineCoding::kDpcmLine, px.data() + static_cast<size_t>(line) * kWidth, kWidth);
    data.insert(data.end(), c.begin(), c.end());
  }
  pandora::VideoHeader vh;
  vh.segments_in_frame = 2;
  vh.pixel_format = pandora::PixelFormat::kGrey8;
  vh.compression_type = pandora::VideoCoding::kDpcmSubsampled;
  vh.x_width = kWidth;
  vh.line_count = kStripLines;
  pandora::Segment s = pandora::MakeVideoSegment(9, 1, pandora::Millis(40), vh, std::move(data));
  s.compression_args = {static_cast<uint32_t>(pandora::LineCoding::kDpcmLine)};
  s.header.length = static_cast<uint32_t>(s.EncodedSize());
  return s;
}

}  // namespace

ReplayCosts RunReplay(int mixer_streams, SpanRecorder* spans) {
  ReplayCosts costs;
  constexpr int kIters = 20000;
  const pandora::Segment audio = AudioSegment(1);
  const std::vector<uint8_t> px = Pixels();
  const pandora::Segment video = VideoSegment(px);
  const auto omitted = pandora::StreamField::kOmitted;

  std::vector<uint8_t> wire;
  costs.encode_audio_ns = TimeOp(spans, "replay.EncodeSegmentInto.audio", kIters, [&](int) {
                            pandora::EncodeSegmentInto(audio, omitted, &wire);
                            g_sink = g_sink + wire.size();
                          }).ns;
  const std::vector<uint8_t> audio_wire = wire;
  costs.encode_video_ns = TimeOp(spans, "replay.EncodeSegmentInto.video", kIters / 4, [&](int) {
                            pandora::EncodeSegmentInto(video, omitted, &wire);
                            g_sink = g_sink + wire.size();
                          }).ns;
  const std::vector<uint8_t> video_wire = wire;

  OpCost op = TimeOp(spans, "replay.DecodeSegment.audio", kIters, [&](int) {
    pandora::DecodeResult r = pandora::DecodeSegment(audio_wire, omitted, 7);
    g_sink = g_sink + r.segment.payload.size();
  });
  costs.decode_audio_ns = op.ns;
  costs.allocs_per_decode_audio = op.allocs;
  op = TimeOp(spans, "replay.DecodeSegment.video", kIters / 4, [&](int) {
    pandora::DecodeResult r = pandora::DecodeSegment(video_wire, omitted, 9);
    g_sink = g_sink + r.segment.payload.size();
  });
  costs.decode_video_ns = op.ns;
  costs.allocs_per_decode_video = op.allocs;

  costs.peek_ns = TimeOp(spans, "replay.PeekWireHeader", kIters, [&](int) {
                    pandora::WireHeaderPeek peek;
                    g_sink = g_sink + pandora::PeekWireHeader(audio_wire, omitted, &peek, 7) +
                             peek.sequence;
                  }).ns;
  costs.split_blocks_ns = TimeOp(spans, "replay.SplitIntoBlocks", kIters, [&](int) {
                            g_sink = g_sink + pandora::SplitIntoBlocks(audio).size();
                          }).ns;

  // Clawback bank at the workload's per-mixer stream count: each round
  // fills every stream 40 blocks deep (below the 60-block limit), then
  // drains it back to the 2-block cushion, timing the two halves apart.
  {
    ScopedSpan span(spans, "replay.ClawbackBank.PushPop");
    pandora::ClawbackBank bank{pandora::ClawbackConfig{}};
    const int streams = std::max(1, mixer_streams);
    constexpr int kDepth = 40;
    pandora::AudioBlock block;
    for (int s = 1; s <= streams; ++s) {
      bank.Push(static_cast<pandora::StreamId>(s), block);
      bank.Push(static_cast<pandora::StreamId>(s), block);
    }
    std::vector<double> push_ns;
    std::vector<double> pop_ns;
    const double ops = static_cast<double>(kDepth * streams);
    for (int round = 0; round < 400; ++round) {
      const int64_t t0 = WallNs();
      for (int k = 0; k < kDepth; ++k) {
        block.source_time += pandora::Millis(2);
        for (int s = 1; s <= streams; ++s) {
          g_sink = g_sink + static_cast<uint64_t>(
                                bank.Push(static_cast<pandora::StreamId>(s), block));
        }
      }
      const int64_t t1 = WallNs();
      for (int k = 0; k < kDepth; ++k) {
        for (int s = 1; s <= streams; ++s) {
          g_sink = g_sink + bank.Pop(static_cast<pandora::StreamId>(s)).has_value();
        }
      }
      push_ns.push_back(static_cast<double>(t1 - t0) / ops);
      pop_ns.push_back(static_cast<double>(WallNs() - t1) / ops);
    }
    std::sort(push_ns.begin(), push_ns.end());
    std::sort(pop_ns.begin(), pop_ns.end());
    costs.clawback_push_ns = push_ns[push_ns.size() / 2];
    costs.clawback_pop_ns = pop_ns[pop_ns.size() / 2];
    op = TimeOp(spans, "replay.ClawbackBank.ActiveStreams", kIters, [&](int) {
      g_sink = g_sink + bank.ActiveStreams().size();
    });
    costs.active_streams_ns = op.ns;
    costs.active_streams_allocs = op.allocs;
  }

  // Mixer passes (mix_kernels.h): per stream decode + accumulate, per tick
  // clamp + encode.
  {
    alignas(16) int16_t linear[kAudioBlockSamples];
    alignas(16) int32_t acc[kAudioBlockSamples] = {};
    alignas(16) int16_t clamped[kAudioBlockSamples];
    uint8_t ulaw[kAudioBlockSamples];
    for (int i = 0; i < kAudioBlockSamples; ++i) {
      ulaw[i] = static_cast<uint8_t>(i * 13);
    }
    costs.mix_ns_per_stream = TimeOp(spans, "replay.mix.stream", kIters * 5, [&](int i) {
                                ulaw[0] = static_cast<uint8_t>(i);
                                pandora::ULawDecodeBlock<kAudioBlockSamples>(ulaw, linear);
                                pandora::AccumulateBlock<kAudioBlockSamples>(linear, acc);
                                g_sink = g_sink + static_cast<uint64_t>(acc[i % kAudioBlockSamples]);
                              }).ns;
    costs.mix_tick_ns = TimeOp(spans, "replay.mix.tick", kIters * 5, [&](int i) {
                          acc[0] = i;
                          pandora::ClampBlock<kAudioBlockSamples>(acc, clamped);
                          pandora::ULawEncodeBlock<kAudioBlockSamples>(clamped, ulaw);
                          g_sink = g_sink + ulaw[i % kAudioBlockSamples];
                        }).ns;
  }

  // DPCM line codecs on one 64-pixel line.
  {
    op = TimeOp(spans, "replay.CompressLine", kIters, [&](int i) {
      const uint8_t* line = px.data() + static_cast<size_t>(i % kStripLines) * kWidth;
      g_sink = g_sink +
               pandora::CompressLine(pandora::LineCoding::kDpcmLine, line, kWidth).size();
    });
    costs.compress_line_ns = op.ns;
    costs.allocs_per_line = op.allocs;
    const std::vector<uint8_t> coded =
        pandora::CompressLine(pandora::LineCoding::kDpcmLine, px.data(), kWidth);
    op = TimeOp(spans, "replay.DecompressLine", kIters, [&](int) {
      pandora::DecompressedLine d = pandora::DecompressLine(coded, kWidth);
      g_sink = g_sink + d.pixels.size();
    });
    costs.decompress_line_ns = op.ns;
    costs.allocs_per_line += op.allocs;
  }
  return costs;
}

}  // namespace worldbench
