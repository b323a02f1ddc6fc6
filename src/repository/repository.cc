#include "src/repository/repository.h"

#include "src/runtime/check.h"

namespace pandora {

Repository::Repository(Scheduler* sched, RepositoryOptions options, ReportSink* report_sink)
    : sched_(sched),
      options_(std::move(options)),
      reporter_(sched, report_sink, options_.name),
      input_(sched, options_.name + ".in"),
      ready_(sched, options_.name + ".ready"),
      disk_(sched, options_.name + ".disk", options_.disk_bits_per_second) {}

void Repository::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  // High priority: recording wins disk reservations over playback (the
  // reversed principle 1).
  sched_->Spawn(RecordProc(), options_.name + ".record", Priority::kHigh);
}

void Repository::Arm(StreamId stream) {
  Recording& recording = recordings_[stream];
  recording.armed = true;
}

void Repository::Finish(StreamId stream) {
  auto it = recordings_.find(stream);
  if (it == recordings_.end()) {
    return;
  }
  Recording& recording = it->second;
  recording.armed = false;
  if (recording.repacked || recording.segments.empty() || !recording.segments[0].is_audio()) {
    return;
  }
  // "This is done as a separate operation after the stream has been
  // recorded": 2ms blocks split out and merged into 40ms segments.
  AudioRepacker repacker(stream);
  std::vector<Segment> stored;
  for (const Segment& live : recording.segments) {
    for (Segment& repacked : repacker.Push(live)) {
      stored.push_back(std::move(repacked));
    }
  }
  if (auto tail = repacker.Flush()) {
    stored.push_back(std::move(*tail));
  }
  recording.stored_bytes = 0;
  for (const Segment& segment : stored) {
    recording.stored_bytes += segment.EncodedSize();
  }
  recording.segments = std::move(stored);
  recording.repacked = true;
  reporter_.ReportNow("repository.repacked", ReportSeverity::kInfo,
                      "stream " + std::to_string(stream) + " repacked: " +
                          std::to_string(recording.raw_bytes) + " -> " +
                          std::to_string(recording.stored_bytes) + " bytes",
                      static_cast<int64_t>(recording.stored_bytes));
}

const Repository::Recording* Repository::Find(StreamId stream) const {
  auto it = recordings_.find(stream);
  return it == recordings_.end() ? nullptr : &it->second;
}

Process Repository::RecordProc() {
  for (;;) {
    SegmentRef ref = co_await input_.Receive();
    const StreamId stream = ref->stream;
    auto it = recordings_.find(stream);
    if (it == recordings_.end() || !it->second.armed) {
      ++segments_discarded_;
      co_await ready_.Send(true);
      continue;
    }
    // Accurate recording: every segment is written; the only cost is disk
    // time, reserved at recorder priority.
    co_await disk_.Transmit(ref->EncodedSize());
    // Re-fetch after the disk wait: Finish() may have disarmed — and
    // repacked — this recording while the write was in flight, and a live
    // 2ms block appended to a repacked stream would corrupt its timeline.
    it = recordings_.find(stream);
    if (it == recordings_.end() || !it->second.armed) {
      ++segments_discarded_;
      co_await ready_.Send(true);
      continue;
    }
    Recording& recording = it->second;
    if (recording.segments.empty()) {
      recording.first_timestamp = ref->header.timestamp;
    }
    recording.raw_bytes += ref->EncodedSize();
    recording.segments.push_back(*ref);
    ++recording.segments_received;
    ++segments_recorded_;
    co_await ready_.Send(true);
  }
}

ProcessHandle Repository::Play(StreamId stored, StreamId as_stream, Channel<SegmentRef>* out,
                               BufferPool* pool, int blocks_per_segment) {
  Recording* recording = &recordings_[stored];
  return sched_->Spawn(PlayProc(recording, as_stream, out, pool, blocks_per_segment),
                       options_.name + ".play." + std::to_string(stored), Priority::kLow);
}

Process Repository::PlayProc(Recording* recording, StreamId as_stream, Channel<SegmentRef>* out,
                             BufferPool* pool, int blocks_per_segment) {
  if (recording->segments.empty()) {
    co_return;
  }
  const Time start = sched_->now();
  const Time base = FromTimestampTicks(recording->segments[0].header.timestamp);

  uint32_t sequence = 0;
  AudioUnpacker unpacker(as_stream, blocks_per_segment);
  // Indexed with a per-step copy, not a range-for: RecordProc may append to
  // (and Finish() repack) this recording between the waits below, which
  // invalidates iterators; the copy is the disk read made explicit.
  for (size_t i = 0; i < recording->segments.size(); ++i) {
    const Segment segment = recording->segments[i];
    // Real-time pacing from the recorded timestamps.
    Time due = start + (FromTimestampTicks(segment.header.timestamp) - base);
    if (due > sched_->now()) {
      co_await sched_->WaitUntil(due);
    }
    co_await disk_.Transmit(segment.EncodedSize());  // read back from disk

    if (segment.is_audio() && recording->repacked) {
      for (Segment& live : unpacker.Push(segment)) {
        // Re-time the unpacked segment onto the playback clock.
        Time offset = live.source_time() - base;
        SegmentRef ref = co_await pool->Allocate();
        *ref = live;  // copy-assign: the pooled slot keeps its capacity
        ref->stream = as_stream;
        ref->header.sequence = sequence++;
        ref->header.timestamp = ToTimestampTicks(start + offset);
        co_await out->Send(std::move(ref));
      }
    } else {
      SegmentRef ref = co_await pool->Allocate();
      *ref = segment;
      ref->stream = as_stream;
      ref->header.sequence = sequence++;
      ref->header.timestamp =
          ToTimestampTicks(start + (FromTimestampTicks(segment.header.timestamp) - base));
      co_await out->Send(std::move(ref));
    }
  }
  if (auto tail = unpacker.Flush()) {
    SegmentRef ref = co_await pool->Allocate();
    *ref = *tail;
    ref->stream = as_stream;
    ref->header.sequence = sequence++;
    co_await out->Send(std::move(ref));
  }
}

}  // namespace pandora
