// Clawback buffers (paper section 3.7.2, figure 3.8).
//
// "These buffers are designed to remove the effects of drift and jitter,
// and should be placed downstream of any components that introduce variable
// delays... as close to the destination as possible."  One exists per audio
// stream arriving at a destination; the audio mixer reads a 2ms block from
// each every 2ms.
//
// Mechanism:
//  * Empty at mixing time -> the stream is skipped (equivalent to 2ms of
//    silence); the late data then sits one block deeper, building a cushion
//    against future jitter.
//  * Arriving blocks are stored with essentially no upper bound (linked
//    lists sharing a common pool, 4 seconds across all streams) but capped
//    per stream (120ms) because larger jitter means something else broke.
//  * Clawback proper: every arrival compares the buffer level against a
//    lower target (4ms).  Single-rate: a counter above target; at 4096
//    (~8s) the incoming block is dropped — delay shrinks by 2ms per 8s
//    ("1 in 4000", the Clawback Rate), which also absorbs any clock drift
//    slower than 1 in 4000 (quartz is ~1 in 1e5).
//  * Multi-rate (proposed for high-jitter networks): keep a running minimum
//    of buffer contents; drop and reset whenever (minimum contents) x
//    (blocks since last reset) exceeds a level in block-seconds (20 here).
//    The level acts as a time constant: delay halves in ~0.7 x level.
//
// A ClawbackBank owns one buffer per active stream: "the audio code does
// not have to be informed of the creation or deletion of streams; it just
// adapts to the incoming data" — a buffer found empty at mixing time is
// deactivated, and a block arriving for an unknown stream creates one.
#ifndef PANDORA_SRC_BUFFER_CLAWBACK_H_
#define PANDORA_SRC_BUFFER_CLAWBACK_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/buffer/ring_queue.h"
#include "src/control/report.h"
#include "src/runtime/time.h"
#include "src/trace/trace.h"
#include "src/segment/audio_block.h"
#include "src/segment/constants.h"

namespace pandora {

// Shared memory budget across every clawback buffer at a destination:
// "we have a total of four seconds of clawback buffering shared between all
// active streams".
class ClawbackPool {
 public:
  explicit ClawbackPool(Duration total = Seconds(4)) : total_(total) {}

  bool TryReserve(Duration amount) {
    if (in_use_ + amount > total_) {
      ++exhaustions_;
      return false;
    }
    in_use_ += amount;
    return true;
  }
  void Release(Duration amount) { in_use_ -= amount; }

  Duration total() const { return total_; }
  Duration in_use() const { return in_use_; }
  uint64_t exhaustions() const { return exhaustions_; }

 private:
  Duration total_;
  Duration in_use_ = 0;
  uint64_t exhaustions_ = 0;
};

enum class ClawbackMode {
  kSingleRate,  // fixed 1-in-N clawback rate (deployed Pandora)
  kMultiRate,   // block-seconds product rule (section 3.7.2 proposal)
};

struct ClawbackConfig {
  ClawbackMode mode = ClawbackMode::kSingleRate;
  // Lower target the buffer tries to claw back to ("our default is 4ms").
  int lower_target_blocks = 2;
  // Single-rate: arrivals above target before one block is dropped
  // ("4096 in our implementation, representing 8 seconds").
  uint32_t count_threshold = 4096;
  // Per-stream cap ("no point in buffering more than about 120ms").
  int per_stream_limit_blocks = 60;
  // Multi-rate: the block-seconds level ("20 block seconds would be
  // suitable for our environment").
  double block_seconds_level = 20.0;
};

enum class ClawbackPushResult {
  kStored,
  kDroppedOverLimit,      // buffer above its 120ms limit on arrival
  kDroppedClawback,       // deliberate delay-reduction drop
  kDroppedPoolExhausted,  // shared 4s pool had no room
};

class ClawbackBuffer {
 public:
  ClawbackBuffer(StreamId stream, const ClawbackConfig& config, ClawbackPool* pool,
                 Reporter* reporter = nullptr);
  ~ClawbackBuffer();

  ClawbackBuffer(const ClawbackBuffer&) = delete;
  ClawbackBuffer& operator=(const ClawbackBuffer&) = delete;

  // A block arrived from the network side.
  ClawbackPushResult Push(const AudioBlock& block);

  // The mixer takes one block every 2ms; nullopt = empty (insert silence).
  std::optional<AudioBlock> Pop();

  StreamId stream() const { return stream_; }
  size_t depth_blocks() const { return blocks_.size(); }
  // The jitter-correction delay this buffer is currently adding.
  Duration delay() const { return static_cast<Duration>(blocks_.size()) * kAudioBlockDuration; }

  struct Stats {
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t empty_pops = 0;
    uint64_t clawback_drops = 0;
    uint64_t limit_drops = 0;
    uint64_t pool_drops = 0;
    size_t max_depth = 0;
  };
  const Stats& stats() const { return stats_; }

  // Optional telemetry: occupancy counter + drop instants on tracks under
  // `bank_prefix` (e.g. "rx.clawback.s3.depth").  Buffers have no Scheduler
  // of their own, so the owner supplies the recorder.
  void BindTrace(TraceRecorder* trace, const std::string& bank_prefix);

  // Turns an empty buffer into a fresh one for `stream` (stats, clawback
  // state and trace binding reset) while keeping its block storage.
  void Reuse(StreamId stream);

 private:
  bool AboveTarget() const {
    return blocks_.size() > static_cast<size_t>(config_.lower_target_blocks);
  }
  // True if the arriving block should be sacrificed to claw delay back.
  bool ClawbackDue();

  StreamId stream_;
  ClawbackConfig config_;
  ClawbackPool* pool_;
  Reporter* reporter_;
  RingQueue<AudioBlock> blocks_;

  // Single-rate state.
  uint32_t above_target_count_ = 0;
  // Multi-rate state.
  size_t running_min_blocks_ = 0;
  bool running_min_valid_ = false;
  uint64_t blocks_since_reset_ = 0;

  Stats stats_;

  TraceRecorder* trace_ = nullptr;
  std::string trace_prefix_;  // "<bank prefix>.s<stream>"
  TraceSiteId trace_depth_site_ = 0;
  TraceSiteId trace_drop_site_ = 0;
};

// Per-destination collection of clawback buffers with the paper's automatic
// lifecycle: created by arriving data, deactivated when found empty.
class ClawbackBank {
 public:
  ClawbackBank(const ClawbackConfig& config, Duration pool_budget = Seconds(4),
               Reporter* reporter = nullptr)
      : config_(config), pool_(pool_budget), reporter_(reporter) {}

  ClawbackPushResult Push(StreamId stream, const AudioBlock& block);

  // Returns the streams the mixer should read this cycle, in stream order.
  std::vector<StreamId> ActiveStreams() const;
  // Same, into `*out` (cleared first; its capacity is reused).
  void ActiveStreamsInto(std::vector<StreamId>* out) const;

  // Pops a block for mixing; an empty result deactivates the stream.
  std::optional<AudioBlock> Pop(StreamId stream);

  ClawbackBuffer* Find(StreamId stream);
  size_t active_count() const { return buffers_.size(); }
  const ClawbackPool& pool() const { return pool_; }
  uint64_t activations() const { return activations_; }
  uint64_t deactivations() const { return deactivations_; }

  // Aggregate stats folded in from buffers as they deactivate, plus live.
  ClawbackBuffer::Stats TotalStats() const;

  // Optional telemetry: per-stream occupancy/drops plus a shared-pool
  // counter, on tracks under `prefix` (e.g. "rx.clawback").  Applies to
  // buffers created afterwards; banks auto-create buffers per stream, so
  // bind before traffic starts.
  void BindTrace(TraceRecorder* trace, std::string prefix);

 private:
  ClawbackConfig config_;
  ClawbackPool pool_;
  Reporter* reporter_;
  using BufferMap = std::map<StreamId, ClawbackBuffer>;
  BufferMap buffers_;
  // Deactivated buffers, map node and block storage intact, waiting to be
  // reused by the next activation instead of allocating a new pair.
  std::vector<BufferMap::node_type> spare_;
  ClawbackBuffer::Stats retired_;
  uint64_t activations_ = 0;
  uint64_t deactivations_ = 0;

  TraceRecorder* trace_ = nullptr;
  std::string trace_prefix_;
  TraceSiteId trace_pool_site_ = 0;
};

}  // namespace pandora

#endif  // PANDORA_SRC_BUFFER_CLAWBACK_H_
