// Pandora segment formats (paper figures 3.1 and 3.2).
//
// A segment is a self-contained unit of stream data: "Stream implementation
// is based on self-contained segments of data containing information for
// delivery, synchronisation and error recovery" (abstract).  Every field in
// the header is 32 bits; the first five fields are common to audio and
// video.  The segment header completely describes the samples that follow,
// and compression schemes/parameters can change from one segment to the
// next.
#ifndef PANDORA_SRC_SEGMENT_SEGMENT_H_
#define PANDORA_SRC_SEGMENT_SEGMENT_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/runtime/time.h"
#include "src/segment/constants.h"

namespace pandora {

// 'PAN1' — identifies the segment layout version.
inline constexpr uint32_t kSegmentVersionId = 0x50414E31;

enum class SegmentType : uint32_t {
  kAudio = 1,
  kVideo = 2,
  kTest = 3,  // software test generators (fig 3.3 "test in/out")
};

// --- Common header (fig 3.1/3.2, first five fields) ------------------------

struct CommonHeader {
  uint32_t version_id = kSegmentVersionId;
  uint32_t sequence = 0;   // per-stream sequence number
  uint32_t timestamp = 0;  // 64us ticks since box boot, taken near the source
  SegmentType type = SegmentType::kTest;
  uint32_t length = 0;  // total encoded segment length in bytes
};

inline constexpr size_t kCommonHeaderBytes = 5 * 4;

// --- Audio-specific header (fig 3.1) ---------------------------------------

enum class AudioFormat : uint32_t {
  kULaw8 = 1,    // 8-bit u-law, the codec's native format
  kLinear16 = 2  // 16-bit linear (used by software test paths)
};

enum class AudioCoding : uint32_t {
  kNone = 0,
  kRepacked = 1,  // repository 40ms repacked storage
};

struct AudioHeader {
  uint32_t sampling_rate = kAudioSampleRateHz;
  AudioFormat format = AudioFormat::kULaw8;
  AudioCoding compression = AudioCoding::kNone;
  uint32_t data_length = 0;  // bytes of sample data following
};

inline constexpr size_t kAudioHeaderBytes = 4 * 4;
// 20 (common) + 16 (audio) = 36 bytes: matches the paper's "320 bytes of
// data plus a new 36 byte header" for repository segments.
inline constexpr size_t kAudioSegmentHeaderBytes = kCommonHeaderBytes + kAudioHeaderBytes;
static_assert(kAudioSegmentHeaderBytes == 36);

// --- Video-specific header (fig 3.2) ----------------------------------------

enum class PixelFormat : uint32_t {
  kGrey8 = 1,
  kColour16 = 2,
};

enum class VideoCoding : uint32_t {
  kRaw = 0,
  kDpcm = 1,          // DPCM per line
  kDpcmSubsampled = 2  // horizontal sub-sampling + DPCM
};

struct VideoHeader {
  uint32_t frame_number = 0;
  // A frame can be broken into several rectangular segments; these place
  // this segment within its frame.
  uint32_t segments_in_frame = 1;
  uint32_t segment_number = 0;  // 0-based within the frame
  uint32_t x_offset = 0;
  uint32_t y_offset = 0;
  PixelFormat pixel_format = PixelFormat::kGrey8;
  VideoCoding compression_type = VideoCoding::kRaw;
  // Variable number of 32-bit compression arguments follow the compression
  // type field so that parameters for any scheme can be accommodated.
  uint32_t argument_count = 0;
  uint32_t x_width = 0;
  uint32_t start_line_y = 0;
  uint32_t line_count = 0;
  uint32_t data_length = 0;
};

inline constexpr size_t kVideoHeaderFixedBytes = 12 * 4;

// --- Segment ---------------------------------------------------------------

struct Segment {
  // "streams within pandora pass the stream number in an extra field
  // preceding the segment header" (section 3.4).
  StreamId stream = kInvalidStream;

  CommonHeader header;
  std::variant<std::monostate, AudioHeader, VideoHeader> sub;
  std::vector<uint32_t> compression_args;  // video only
  std::vector<uint8_t> payload;

  bool is_audio() const { return header.type == SegmentType::kAudio; }
  bool is_video() const { return header.type == SegmentType::kVideo; }

  AudioHeader& audio() { return std::get<AudioHeader>(sub); }
  const AudioHeader& audio() const { return std::get<AudioHeader>(sub); }
  VideoHeader& video() { return std::get<VideoHeader>(sub); }
  const VideoHeader& video() const { return std::get<VideoHeader>(sub); }

  // Full-resolution source timestamp.
  Time source_time() const { return FromTimestampTicks(header.timestamp); }

  // Encoded size in bytes (headers + args + payload), as would travel on a
  // link; kept in header.length.
  size_t EncodedSize() const;

  // Number of 2ms audio blocks carried (audio segments only).
  int AudioBlockCount() const;
};

// Builds an audio segment carrying `blocks` x 16 u-law samples.
Segment MakeAudioSegment(StreamId stream, uint32_t sequence, Time source_time,
                         std::vector<uint8_t> samples);

// Builds a video segment for a rectangle of a frame.
Segment MakeVideoSegment(StreamId stream, uint32_t sequence, Time source_time,
                         const VideoHeader& vh, std::vector<uint8_t> data);

// In-place forms of the two Make*Segment functions: every field of
// `*segment` ends up as the matching Make*Segment would set it, but the
// payload is copied into the existing vector, whose heap capacity is kept.
// Filling a recycled pool slot therefore allocates nothing in steady state,
// where `*ref = Make*Segment(...)` would throw the slot's payload away.
void FillAudioSegment(Segment* segment, StreamId stream, uint32_t sequence, Time source_time,
                      const uint8_t* samples, size_t size);
void FillVideoSegment(Segment* segment, StreamId stream, uint32_t sequence, Time source_time,
                      const VideoHeader& vh, const uint8_t* data, size_t size);

}  // namespace pandora

#endif  // PANDORA_SRC_SEGMENT_SEGMENT_H_
