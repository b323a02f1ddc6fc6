// Tests for Pandora segment formats, wire codec, sequence tracking and
// repository repacking (paper sections 3.2, 3.3, 3.8).
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/segment/audio_block.h"
#include "src/segment/constants.h"
#include "src/segment/repack.h"
#include "src/segment/segment.h"
#include "src/segment/sequence.h"
#include "src/segment/wire.h"

namespace pandora {
namespace {

std::vector<uint8_t> Ramp(size_t n, uint8_t start = 0) {
  std::vector<uint8_t> data(n);
  std::iota(data.begin(), data.end(), start);
  return data;
}

TEST(SegmentTest, AudioHeaderIs36Bytes) {
  // The paper's repository format: "320 bytes of data plus a new 36 byte
  // header" — 20 common + 16 audio-specific.
  EXPECT_EQ(kCommonHeaderBytes, 20u);
  EXPECT_EQ(kAudioHeaderBytes, 16u);
  EXPECT_EQ(kAudioSegmentHeaderBytes, 36u);
}

TEST(SegmentTest, MakeAudioSegmentFillsFields) {
  Segment segment = MakeAudioSegment(7, 42, Millis(10), Ramp(32));
  EXPECT_EQ(segment.stream, 7u);
  EXPECT_EQ(segment.header.sequence, 42u);
  EXPECT_TRUE(segment.is_audio());
  EXPECT_EQ(segment.AudioBlockCount(), 2);
  EXPECT_EQ(segment.audio().data_length, 32u);
  EXPECT_EQ(segment.EncodedSize(), 36u + 32u);
  EXPECT_EQ(segment.header.length, 68u);
  // 10ms = 10000us = 156.25 ticks of 64us -> 156 -> 9984us.
  EXPECT_EQ(segment.source_time(), (Millis(10) / 64) * 64);
}

TEST(SegmentTest, DefaultSegmentIs4msTwoBlocks) {
  EXPECT_EQ(kDefaultBlocksPerSegment, 2);
  EXPECT_EQ(kDefaultBlocksPerSegment * kAudioBlockDuration, Millis(4));
  EXPECT_EQ(kMaxBlocksPerSegment * kAudioBlockDuration, Millis(24));
  EXPECT_EQ(kRepositoryBlocksPerSegment * kAudioBlockBytes, kRepositorySegmentBytes);
  EXPECT_EQ(kRepositoryBlocksPerSegment * kAudioBlockDuration, kRepositorySegmentDuration);
}

TEST(WireTest, AudioRoundTripWithStreamField) {
  Segment segment = MakeAudioSegment(9, 3, Millis(2), Ramp(64));
  std::vector<uint8_t> bytes = EncodeSegment(segment, StreamField::kIncluded);
  EXPECT_EQ(bytes.size(), segment.EncodedSize() + 4);

  DecodeResult decoded = DecodeSegment(bytes, StreamField::kIncluded);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.segment.stream, 9u);
  EXPECT_EQ(decoded.segment.header.sequence, 3u);
  EXPECT_EQ(decoded.segment.header.timestamp, segment.header.timestamp);
  EXPECT_EQ(decoded.segment.payload, segment.payload);
  EXPECT_EQ(decoded.segment.audio().sampling_rate, kAudioSampleRateHz);
}

TEST(WireTest, AudioRoundTripViaVci) {
  Segment segment = MakeAudioSegment(9, 3, Millis(2), Ramp(32));
  std::vector<uint8_t> bytes = EncodeSegment(segment, StreamField::kOmitted);
  EXPECT_EQ(bytes.size(), segment.EncodedSize());
  DecodeResult decoded = DecodeSegment(bytes, StreamField::kOmitted, /*vci_stream=*/55);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.segment.stream, 55u);  // recovered from the VCI
  EXPECT_EQ(decoded.segment.payload, segment.payload);
}

TEST(WireTest, VideoRoundTripWithCompressionArgs) {
  VideoHeader vh;
  vh.frame_number = 100;
  vh.segments_in_frame = 4;
  vh.segment_number = 2;
  vh.x_offset = 16;
  vh.y_offset = 32;
  vh.pixel_format = PixelFormat::kGrey8;
  vh.compression_type = VideoCoding::kDpcmSubsampled;
  vh.x_width = 128;
  vh.start_line_y = 64;
  vh.line_count = 8;
  Segment segment = MakeVideoSegment(4, 17, Millis(40), vh, Ramp(128 * 8));
  segment.compression_args = {2, 7};  // e.g. sub-sample ratio, quantiser
  segment.header.length = static_cast<uint32_t>(segment.EncodedSize());

  std::vector<uint8_t> bytes = EncodeSegment(segment);
  DecodeResult decoded = DecodeSegment(bytes);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  const VideoHeader& got = decoded.segment.video();
  EXPECT_EQ(got.frame_number, 100u);
  EXPECT_EQ(got.segments_in_frame, 4u);
  EXPECT_EQ(got.segment_number, 2u);
  EXPECT_EQ(got.x_width, 128u);
  EXPECT_EQ(got.line_count, 8u);
  EXPECT_EQ(decoded.segment.compression_args, (std::vector<uint32_t>{2, 7}));
  EXPECT_EQ(decoded.segment.payload.size(), 1024u);
}

TEST(WireTest, RejectsBadVersion) {
  Segment segment = MakeAudioSegment(1, 0, 0, Ramp(16));
  std::vector<uint8_t> bytes = EncodeSegment(segment);
  bytes[4] ^= 0xff;  // corrupt version id (after 4-byte stream field)
  DecodeResult decoded = DecodeSegment(bytes);
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, "bad version id");
}

TEST(WireTest, RejectsTruncation) {
  Segment segment = MakeAudioSegment(1, 0, 0, Ramp(32));
  std::vector<uint8_t> bytes = EncodeSegment(segment);
  for (size_t cut : {size_t{3}, size_t{10}, size_t{30}, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeSegment(truncated).ok) << "cut=" << cut;
  }
}

TEST(WireTest, RejectsLengthMismatch) {
  Segment segment = MakeAudioSegment(1, 0, 0, Ramp(32));
  std::vector<uint8_t> bytes = EncodeSegment(segment);
  bytes.push_back(0);  // trailing garbage
  EXPECT_FALSE(DecodeSegment(bytes).ok);
}

TEST(WireTest, RejectsBadSegmentNumbering) {
  VideoHeader vh;
  vh.segments_in_frame = 2;
  vh.segment_number = 2;  // out of range
  vh.x_width = 4;
  vh.line_count = 1;
  Segment segment = MakeVideoSegment(1, 0, 0, vh, Ramp(4));
  std::vector<uint8_t> bytes = EncodeSegment(segment);
  DecodeResult decoded = DecodeSegment(bytes);
  EXPECT_FALSE(decoded.ok);
}

// Field-by-field equality, including the header fields the wire image
// derives rather than carries (data_length, argument_count).
void ExpectSameSegment(const Segment& got, const Segment& want) {
  EXPECT_EQ(got.stream, want.stream);
  EXPECT_EQ(got.header.version_id, want.header.version_id);
  EXPECT_EQ(got.header.sequence, want.header.sequence);
  EXPECT_EQ(got.header.timestamp, want.header.timestamp);
  EXPECT_EQ(got.header.type, want.header.type);
  EXPECT_EQ(got.header.length, want.header.length);
  ASSERT_EQ(got.sub.index(), want.sub.index());
  if (want.is_audio()) {
    EXPECT_EQ(got.audio().sampling_rate, want.audio().sampling_rate);
    EXPECT_EQ(got.audio().format, want.audio().format);
    EXPECT_EQ(got.audio().compression, want.audio().compression);
    EXPECT_EQ(got.audio().data_length, want.audio().data_length);
  } else if (want.is_video()) {
    const VideoHeader& g = got.video();
    const VideoHeader& w = want.video();
    EXPECT_EQ(g.frame_number, w.frame_number);
    EXPECT_EQ(g.segments_in_frame, w.segments_in_frame);
    EXPECT_EQ(g.segment_number, w.segment_number);
    EXPECT_EQ(g.x_offset, w.x_offset);
    EXPECT_EQ(g.y_offset, w.y_offset);
    EXPECT_EQ(g.pixel_format, w.pixel_format);
    EXPECT_EQ(g.compression_type, w.compression_type);
    EXPECT_EQ(g.argument_count, w.argument_count);
    EXPECT_EQ(g.x_width, w.x_width);
    EXPECT_EQ(g.start_line_y, w.start_line_y);
    EXPECT_EQ(g.line_count, w.line_count);
    EXPECT_EQ(g.data_length, w.data_length);
  }
  EXPECT_EQ(got.compression_args, want.compression_args);
  EXPECT_EQ(got.payload, want.payload);
}

VideoHeader StripHeader() {
  VideoHeader vh;
  vh.frame_number = 12;
  vh.segments_in_frame = 2;
  vh.segment_number = 1;
  vh.y_offset = 24;
  vh.pixel_format = PixelFormat::kGrey8;
  vh.compression_type = VideoCoding::kDpcmSubsampled;
  vh.x_width = 64;
  vh.start_line_y = 24;
  vh.line_count = 2;
  return vh;
}

// A pool slot after use and PoolRecycle: a big payload's capacity, stale
// compression args and headers from some other stream.
Segment StaleSlot() {
  Segment stale = MakeVideoSegment(99, 7, Millis(400), StripHeader(), Ramp(4096, 3));
  stale.compression_args = {5, 6, 7};
  return stale;
}

TEST(WireTest, DecodeIntoReusedSegmentMatchesFreshDecode) {
  Segment video = MakeVideoSegment(4, 11, Millis(80), StripHeader(), Ramp(130, 9));
  video.compression_args = {2};
  video.header.length = static_cast<uint32_t>(video.EncodedSize());
  Segment test_segment;
  test_segment.stream = 6;
  test_segment.header.type = SegmentType::kTest;
  test_segment.payload = Ramp(5);
  test_segment.header.length = static_cast<uint32_t>(test_segment.EncodedSize());
  for (const Segment& original :
       {MakeAudioSegment(3, 21, Millis(6), Ramp(32, 1)), video, test_segment}) {
    for (StreamField field : {StreamField::kIncluded, StreamField::kOmitted}) {
      const std::vector<uint8_t> bytes = EncodeSegment(original, field);
      const DecodeResult fresh = DecodeSegment(bytes, field, original.stream);
      ASSERT_TRUE(fresh.ok) << fresh.error;

      Segment reused = StaleSlot();
      const size_t capacity = reused.payload.capacity();
      const uint8_t* storage = reused.payload.data();
      const char* error = nullptr;
      ASSERT_TRUE(DecodeSegmentInto(bytes, field, original.stream, &reused, &error)) << error;
      ExpectSameSegment(reused, fresh.segment);
      // Decoded in place: the stale payload's storage was kept, not replaced.
      EXPECT_EQ(reused.payload.capacity(), capacity);
      EXPECT_EQ(reused.payload.data(), storage);
    }
  }
}

TEST(WireTest, DecodeIntoReportsTheWrapperError) {
  std::vector<uint8_t> bytes = EncodeSegment(MakeAudioSegment(1, 1, 0, Ramp(32)));
  bytes.resize(bytes.size() - 3);
  Segment scratch = StaleSlot();
  const char* error = nullptr;
  EXPECT_FALSE(DecodeSegmentInto(bytes, StreamField::kIncluded, kInvalidStream, &scratch, &error));
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(DecodeSegment(bytes).error, error);
}

TEST(SegmentTest, FillIntoRecycledSlotMatchesMake) {
  const std::vector<uint8_t> samples = Ramp(64, 17);
  Segment audio = StaleSlot();
  const uint8_t* storage = audio.payload.data();
  FillAudioSegment(&audio, 8, 30, Millis(12), samples.data(), samples.size());
  ExpectSameSegment(audio, MakeAudioSegment(8, 30, Millis(12), samples));
  EXPECT_EQ(audio.payload.data(), storage);

  const std::vector<uint8_t> data = Ramp(130, 40);
  Segment video = StaleSlot();
  storage = video.payload.data();
  FillVideoSegment(&video, 5, 31, Millis(44), StripHeader(), data.data(), data.size());
  ExpectSameSegment(video, MakeVideoSegment(5, 31, Millis(44), StripHeader(), data));
  EXPECT_EQ(video.payload.data(), storage);
}

TEST(SequenceTest, InOrderStream) {
  SequenceTracker tracker;
  EXPECT_EQ(tracker.Observe(10).outcome, SequenceTracker::Outcome::kFirst);
  for (uint32_t s = 11; s < 20; ++s) {
    EXPECT_EQ(tracker.Observe(s).outcome, SequenceTracker::Outcome::kInOrder);
  }
  EXPECT_EQ(tracker.received(), 10u);
  EXPECT_EQ(tracker.missing_total(), 0u);
  EXPECT_DOUBLE_EQ(tracker.LossFraction(), 0.0);
}

TEST(SequenceTest, DetectsGapAsSoonAsLaterArrives) {
  SequenceTracker tracker;
  tracker.Observe(0);
  auto obs = tracker.Observe(4);  // 1,2,3 missing
  EXPECT_EQ(obs.outcome, SequenceTracker::Outcome::kGap);
  EXPECT_EQ(obs.missing, 3u);
  EXPECT_EQ(tracker.missing_total(), 3u);
  EXPECT_EQ(tracker.max_gap(), 3u);
  EXPECT_EQ(tracker.Observe(5).outcome, SequenceTracker::Outcome::kInOrder);
}

TEST(SequenceTest, DuplicateAndStale) {
  SequenceTracker tracker;
  tracker.Observe(0);
  tracker.Observe(1);
  EXPECT_EQ(tracker.Observe(1).outcome, SequenceTracker::Outcome::kDuplicate);
  EXPECT_EQ(tracker.Observe(0).outcome, SequenceTracker::Outcome::kStale);
  EXPECT_EQ(tracker.duplicates(), 1u);
  EXPECT_EQ(tracker.stale(), 1u);
}

TEST(SequenceTest, WrapAround) {
  SequenceTracker tracker;
  tracker.Observe(0xFFFFFFFEu);
  EXPECT_EQ(tracker.Observe(0xFFFFFFFFu).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.Observe(0u).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.Observe(1u).outcome, SequenceTracker::Outcome::kInOrder);
}

TEST(SequenceTest, BitFlippedSequenceIsSuspectAndStreamSurvives) {
  SequenceTracker tracker;
  tracker.Observe(100);
  tracker.Observe(101);
  // A bit flip in the (checksum-less) sequence field: an implausible jump.
  // The segment is discarded but the expectation must survive, else every
  // genuine segment afterwards would read as stale forever.
  EXPECT_EQ(tracker.Observe(101 | (1u << 30)).outcome, SequenceTracker::Outcome::kSuspect);
  EXPECT_EQ(tracker.Observe(102).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.Observe(103).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.suspects(), 1u);
  EXPECT_EQ(tracker.resyncs(), 0u);
  EXPECT_EQ(tracker.missing_total(), 0u);
}

TEST(SequenceTest, GapWithinPlausibleJumpStillReportsGap) {
  SequenceTracker tracker;
  tracker.Observe(0);
  auto obs = tracker.Observe(4096);  // exactly at the plausibility boundary
  EXPECT_EQ(obs.outcome, SequenceTracker::Outcome::kGap);
  EXPECT_EQ(obs.missing, 4095u);
  EXPECT_EQ(tracker.suspects(), 0u);
}

TEST(SequenceTest, ConsecutiveSuspectsConfirmReorigination) {
  SequenceTracker tracker;
  tracker.Observe(5);
  tracker.Observe(6);
  // The sender re-originated far away (e.g. restart).  The first arrival in
  // the new space is suspect; its direct successor confirms, re-anchoring at
  // the cost of exactly one segment and no gap accounting.
  EXPECT_EQ(tracker.Observe(900000).outcome, SequenceTracker::Outcome::kSuspect);
  EXPECT_EQ(tracker.Observe(900001).outcome, SequenceTracker::Outcome::kResync);
  EXPECT_EQ(tracker.Observe(900002).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.suspects(), 1u);
  EXPECT_EQ(tracker.resyncs(), 1u);
  EXPECT_EQ(tracker.missing_total(), 0u);
}

TEST(SequenceTest, NonConsecutiveSuspectsDoNotResync) {
  SequenceTracker tracker;
  tracker.Observe(5);
  // Two independent bit flips land in different places: neither confirms
  // the other, and the original expectation still stands.
  EXPECT_EQ(tracker.Observe(1u << 29).outcome, SequenceTracker::Outcome::kSuspect);
  EXPECT_EQ(tracker.Observe(1u << 27).outcome, SequenceTracker::Outcome::kSuspect);
  EXPECT_EQ(tracker.Observe(6).outcome, SequenceTracker::Outcome::kInOrder);
  EXPECT_EQ(tracker.suspects(), 2u);
  EXPECT_EQ(tracker.resyncs(), 0u);
}

TEST(AudioBlockTest, SplitReconstructsTimes) {
  Segment segment = MakeAudioSegment(1, 0, Millis(64), Ramp(48));
  std::vector<AudioBlock> blocks = SplitIntoBlocks(segment);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].source_time, Millis(64));
  EXPECT_EQ(blocks[1].source_time, Millis(66));
  EXPECT_EQ(blocks[2].source_time, Millis(68));
  EXPECT_EQ(blocks[0].samples[0], 0);
  EXPECT_EQ(blocks[1].samples[0], 16);
  EXPECT_EQ(blocks[2].samples[15], 47);
}

TEST(RepackTest, MergesLiveSegmentsInto40msSegments) {
  AudioRepacker repacker(3);
  std::vector<Segment> out;
  // 30 live segments of 2 blocks = 60 blocks = 3 x 20-block segments.
  uint32_t seq = 0;
  Time t = 0;
  for (int i = 0; i < 30; ++i) {
    Segment live = MakeAudioSegment(3, seq++, t, Ramp(32, static_cast<uint8_t>(i)));
    t += Millis(4);
    for (Segment& s : repacker.Push(live)) {
      out.push_back(std::move(s));
    }
  }
  EXPECT_FALSE(repacker.Flush().has_value());
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].payload.size(), static_cast<size_t>(kRepositorySegmentBytes));
    EXPECT_EQ(out[i].header.sequence, static_cast<uint32_t>(i));
    EXPECT_EQ(out[i].audio().compression, AudioCoding::kRepacked);
    EXPECT_EQ(out[i].EncodedSize(), 36u + 320u);  // the paper's exact numbers
  }
  // Timestamps advance by 40ms per stored segment.
  EXPECT_EQ(out[1].source_time() - out[0].source_time(), Millis(40));
  EXPECT_EQ(out[2].source_time() - out[1].source_time(), Millis(40));
}

TEST(RepackTest, AcceptsMixedSegmentSizesAndFlushesRemainder) {
  AudioRepacker repacker(5);
  size_t emitted = 0;
  uint32_t seq = 0;
  Time t = 0;
  // Mixture of 1..12 block segments ("Incoming segments of any mixture of
  // sizes are accepted").
  int total_blocks = 0;
  for (int blocks : {1, 12, 2, 7, 3, 12, 5, 1, 2}) {
    total_blocks += blocks;
    Segment live =
        MakeAudioSegment(5, seq++, t, Ramp(static_cast<size_t>(blocks) * kAudioBlockBytes));
    t += blocks * kAudioBlockDuration;
    emitted += repacker.Push(live).size();
  }
  auto tail = repacker.Flush();
  int whole = total_blocks / kRepositoryBlocksPerSegment;
  EXPECT_EQ(emitted, static_cast<size_t>(whole));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->payload.size(),
            static_cast<size_t>(total_blocks % kRepositoryBlocksPerSegment) * kAudioBlockBytes);
}

TEST(RepackTest, UnpackerRestoresLiveSegments) {
  // Round trip: live -> repository -> live(2 blocks each), byte-identical.
  AudioRepacker repacker(8);
  AudioUnpacker unpacker(8, kDefaultBlocksPerSegment);
  std::vector<uint8_t> original;
  std::vector<Segment> stored;
  uint32_t seq = 0;
  Time t = Millis(100);
  for (int i = 0; i < 10; ++i) {
    auto payload = Ramp(64, static_cast<uint8_t>(3 * i));
    original.insert(original.end(), payload.begin(), payload.end());
    Segment live = MakeAudioSegment(8, seq++, t, payload);
    t += Millis(8);
    for (Segment& s : repacker.Push(live)) {
      stored.push_back(std::move(s));
    }
  }
  if (auto tail = repacker.Flush()) {
    stored.push_back(std::move(*tail));
  }

  std::vector<uint8_t> restored;
  Time first_live_time = -1;
  for (const Segment& s : stored) {
    for (const Segment& live : unpacker.Push(s)) {
      if (first_live_time < 0) {
        first_live_time = live.source_time();
      }
      EXPECT_EQ(live.AudioBlockCount(), kDefaultBlocksPerSegment);
      restored.insert(restored.end(), live.payload.begin(), live.payload.end());
    }
  }
  if (auto tail = unpacker.Flush()) {
    restored.insert(restored.end(), tail->payload.begin(), tail->payload.end());
  }
  EXPECT_EQ(restored, original);
  EXPECT_EQ(first_live_time, (Millis(100) / 64) * 64);
}

TEST(RepackTest, HeaderOverheadShrinksWithBlockCount) {
  // E13's shape: 36-byte headers dominate 2ms segments, are negligible at
  // the repository's 40ms.
  double live_min = AudioHeaderOverhead(1);
  double live_default = AudioHeaderOverhead(kDefaultBlocksPerSegment);
  double repo = AudioHeaderOverhead(kRepositoryBlocksPerSegment);
  EXPECT_NEAR(live_min, 36.0 / 52.0, 1e-9);
  EXPECT_GT(live_default, repo);
  EXPECT_LT(repo, 0.11);
  EXPECT_GT(live_min, 0.6);
}

class RepackBlockCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RepackBlockCountTest, RoundTripPreservesEveryByteForAnyBlockCount) {
  const int blocks = GetParam();
  AudioRepacker repacker(1);
  AudioUnpacker unpacker(1, blocks);
  std::vector<uint8_t> original;
  std::vector<uint8_t> restored;
  uint32_t seq = 0;
  for (int i = 0; i < 50; ++i) {
    auto payload = Ramp(static_cast<size_t>(blocks) * kAudioBlockBytes, static_cast<uint8_t>(i));
    original.insert(original.end(), payload.begin(), payload.end());
    Segment live = MakeAudioSegment(1, seq++, i * Millis(2) * blocks, payload);
    for (const Segment& stored : repacker.Push(live)) {
      for (const Segment& out : unpacker.Push(stored)) {
        restored.insert(restored.end(), out.payload.begin(), out.payload.end());
      }
    }
  }
  if (auto tail = repacker.Flush()) {
    for (const Segment& out : unpacker.Push(*tail)) {
      restored.insert(restored.end(), out.payload.begin(), out.payload.end());
    }
  }
  if (auto tail = unpacker.Flush()) {
    restored.insert(restored.end(), tail->payload.begin(), tail->payload.end());
  }
  EXPECT_EQ(restored, original);
}

INSTANTIATE_TEST_SUITE_P(AllLiveBlockCounts, RepackBlockCountTest,
                         ::testing::Values(1, 2, 3, 5, 7, 12));

}  // namespace
}  // namespace pandora
