#include "src/buffer/clawback.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/runtime/check.h"

namespace pandora {

// Drop-instant "reason" argument values (see DESIGN.md section 7).
namespace {
constexpr int64_t kDropReasonLimit = 1;
constexpr int64_t kDropReasonClawback = 2;
constexpr int64_t kDropReasonPool = 3;
}  // namespace

void ClawbackBuffer::BindTrace(TraceRecorder* trace, const std::string& bank_prefix) {
  trace_ = trace;
  if (trace_ != nullptr) {
    // Built in place so a reused buffer keeps the string's capacity.
    trace_prefix_.assign(bank_prefix);
    trace_prefix_ += ".s";
    trace_prefix_ += std::to_string(stream_);
  }
}

void ClawbackBank::BindTrace(TraceRecorder* trace, std::string prefix) {
  trace_ = trace;
  trace_prefix_ = std::move(prefix);
  for (auto& [stream, buffer] : buffers_) {
    buffer.BindTrace(trace_, trace_prefix_);
  }
}

ClawbackBuffer::ClawbackBuffer(StreamId stream, const ClawbackConfig& config, ClawbackPool* pool,
                               Reporter* reporter)
    : stream_(stream), config_(config), pool_(pool), reporter_(reporter) {}

void ClawbackBuffer::Reuse(StreamId stream) {
  PANDORA_CHECK(blocks_.empty(), "reusing a clawback buffer that still holds blocks");
  stream_ = stream;
  above_target_count_ = 0;
  running_min_blocks_ = 0;
  running_min_valid_ = false;
  blocks_since_reset_ = 0;
  stats_ = Stats{};
  trace_ = nullptr;
  trace_prefix_.clear();
  trace_depth_site_ = 0;
  trace_drop_site_ = 0;
}

ClawbackBuffer::~ClawbackBuffer() {
  if (pool_ != nullptr && !blocks_.empty()) {
    pool_->Release(static_cast<Duration>(blocks_.size()) * kAudioBlockDuration);
  }
}

bool ClawbackBuffer::ClawbackDue() {
  switch (config_.mode) {
    case ClawbackMode::kSingleRate:
      // "Every time a block is added, the clawback mechanism checks the
      // count of blocks in the buffer against a lower target...  If it is
      // above this target level, a count is incremented.  When this count
      // exceeds some value (4096...), the current incoming block is dropped."
      if (AboveTarget()) {
        ++above_target_count_;
        if (above_target_count_ >= config_.count_threshold) {
          above_target_count_ = 0;
          return true;
        }
      }
      return false;
    case ClawbackMode::kMultiRate: {
      // "Remove a block and reset the counts whenever the product
      // (minimum contents) x (blocks since last reset) exceeds some level
      // (expressed in block seconds)."
      const size_t contents = blocks_.size();
      if (contents == 0) {
        // The buffer touched empty: the correction delay is already at its
        // floor, so there is nothing to claw back — restart the window.
        blocks_since_reset_ = 0;
        running_min_valid_ = false;
        return false;
      }
      if (!running_min_valid_ || contents < running_min_blocks_) {
        running_min_blocks_ = contents;
        running_min_valid_ = true;
      }
      ++blocks_since_reset_;
      const double min_seconds =
          static_cast<double>(running_min_blocks_) * ToSeconds(kAudioBlockDuration);
      if (min_seconds * static_cast<double>(blocks_since_reset_) >= config_.block_seconds_level) {
        blocks_since_reset_ = 0;
        running_min_valid_ = false;
        return true;
      }
      return false;
    }
  }
  return false;
}

ClawbackPushResult ClawbackBuffer::Push(const AudioBlock& block) {
  ++stats_.pushes;

  // "We throw away samples if the buffer is above its limit when they
  // arrive... the process reports this condition so that the cause can be
  // investigated."
  if (blocks_.size() >= static_cast<size_t>(config_.per_stream_limit_blocks)) {
    ++stats_.limit_drops;
    if (reporter_ != nullptr) {
      reporter_->Report("clawback.limit", ReportSeverity::kError,
                        "stream buffered past its jitter limit; investigate upstream",
                        static_cast<int64_t>(stream_));
    }
    PANDORA_TRACE_INSTANT2(trace_, trace_drop_site_, trace_prefix_ + ".drop", "reason",
                           kDropReasonLimit, "depth", static_cast<int64_t>(blocks_.size()));
    return ClawbackPushResult::kDroppedOverLimit;
  }

  if (ClawbackDue()) {
    ++stats_.clawback_drops;
    PANDORA_TRACE_INSTANT2(trace_, trace_drop_site_, trace_prefix_ + ".drop", "reason",
                           kDropReasonClawback, "depth", static_cast<int64_t>(blocks_.size()));
    return ClawbackPushResult::kDroppedClawback;
  }

  if (pool_ != nullptr && !pool_->TryReserve(kAudioBlockDuration)) {
    ++stats_.pool_drops;
    if (reporter_ != nullptr) {
      reporter_->Report("clawback.pool", ReportSeverity::kError,
                        "shared clawback pool exhausted", static_cast<int64_t>(stream_));
    }
    PANDORA_TRACE_INSTANT2(trace_, trace_drop_site_, trace_prefix_ + ".drop", "reason",
                           kDropReasonPool, "depth", static_cast<int64_t>(blocks_.size()));
    return ClawbackPushResult::kDroppedPoolExhausted;
  }

  blocks_.push_back(block);
  stats_.max_depth = std::max(stats_.max_depth, blocks_.size());
  PANDORA_TRACE_COUNTER(trace_, trace_depth_site_, trace_prefix_ + ".depth",
                        static_cast<int64_t>(blocks_.size()));
  return ClawbackPushResult::kStored;
}

std::optional<AudioBlock> ClawbackBuffer::Pop() {
  ++stats_.pops;
  if (blocks_.empty()) {
    ++stats_.empty_pops;
    return std::nullopt;
  }
  AudioBlock block = blocks_.front();
  blocks_.pop_front();
  if (pool_ != nullptr) {
    pool_->Release(kAudioBlockDuration);
  }
  PANDORA_TRACE_COUNTER(trace_, trace_depth_site_, trace_prefix_ + ".depth",
                        static_cast<int64_t>(blocks_.size()));
  return block;
}

ClawbackPushResult ClawbackBank::Push(StreamId stream, const AudioBlock& block) {
  auto it = buffers_.find(stream);
  if (it == buffers_.end()) {
    // "If a block arrives for a stream that does not have a buffer, a new
    // clawback buffer will be inserted, and mixing will resume."
    if (spare_.empty()) {
      it = buffers_
               .emplace(std::piecewise_construct, std::forward_as_tuple(stream),
                        std::forward_as_tuple(stream, config_, &pool_, reporter_))
               .first;
    } else {
      BufferMap::node_type node = std::move(spare_.back());
      spare_.pop_back();
      node.key() = stream;
      node.mapped().Reuse(stream);
      it = buffers_.insert(std::move(node)).position;
    }
    it->second.BindTrace(trace_, trace_prefix_);
    ++activations_;
  }
  ClawbackPushResult result = it->second.Push(block);
  PANDORA_TRACE_COUNTER(trace_, trace_pool_site_, trace_prefix_ + ".pool_in_use",
                        pool_.in_use());
  return result;
}

std::vector<StreamId> ClawbackBank::ActiveStreams() const {
  std::vector<StreamId> streams;
  ActiveStreamsInto(&streams);
  return streams;
}

void ClawbackBank::ActiveStreamsInto(std::vector<StreamId>* out) const {
  out->clear();
  out->reserve(buffers_.size());
  for (const auto& [stream, buffer] : buffers_) {
    out->push_back(stream);
  }
}

std::optional<AudioBlock> ClawbackBank::Pop(StreamId stream) {
  auto it = buffers_.find(stream);
  if (it == buffers_.end()) {
    return std::nullopt;
  }
  std::optional<AudioBlock> block = it->second.Pop();
  if (!block.has_value()) {
    // "The time saved when a clawback buffer is found to be empty is used
    // to deactivate the stream, removing the clawback buffer altogether."
    const ClawbackBuffer::Stats& s = it->second.stats();
    retired_.pushes += s.pushes;
    retired_.pops += s.pops;
    retired_.empty_pops += s.empty_pops;
    retired_.clawback_drops += s.clawback_drops;
    retired_.limit_drops += s.limit_drops;
    retired_.pool_drops += s.pool_drops;
    retired_.max_depth = std::max(retired_.max_depth, s.max_depth);
    spare_.push_back(buffers_.extract(it));
    ++deactivations_;
  }
  return block;
}

ClawbackBuffer* ClawbackBank::Find(StreamId stream) {
  auto it = buffers_.find(stream);
  return it == buffers_.end() ? nullptr : &it->second;
}

ClawbackBuffer::Stats ClawbackBank::TotalStats() const {
  ClawbackBuffer::Stats total = retired_;
  for (const auto& [stream, buffer] : buffers_) {
    const ClawbackBuffer::Stats& s = buffer.stats();
    total.pushes += s.pushes;
    total.pops += s.pops;
    total.empty_pops += s.empty_pops;
    total.clawback_drops += s.clawback_drops;
    total.limit_drops += s.limit_drops;
    total.pool_drops += s.pool_drops;
    total.max_depth = std::max(total.max_depth, s.max_depth);
  }
  return total;
}

}  // namespace pandora
