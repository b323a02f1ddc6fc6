// Serial resources: CPU-time and link-bandwidth cost models.
//
// The reproduction substitutes discrete-event cost accounting for the real
// T425 transputers and Inmos links (see DESIGN.md, substitutions).  A
// SerialResource hands out FIFO reservations on a single-server timeline:
// each acquisition starts no earlier than the previous one finished, and the
// holder sleeps (in simulated time) until its reservation completes.
// Because the scheduler runs high-priority processes first within an
// instant, they also reserve first — matching Pandora's output-side CPU
// priority (section 3.7.1).
//
// CpuModel charges per-operation microsecond costs (mixing a block, applying
// jitter correction, running interface code...).  BandwidthGate converts
// bytes to transmission time at a configured bit rate and, like the paper's
// network code, does NOT interleave transmissions — a large video segment
// occupies the link end-to-end and delays any audio queued behind it
// (section 4.2, the source of up to 20 ms audio jitter).
#ifndef PANDORA_SRC_RUNTIME_RESOURCE_H_
#define PANDORA_SRC_RUNTIME_RESOURCE_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/runtime/scheduler.h"
#include "src/runtime/time.h"
#include "src/trace/trace.h"

namespace pandora {

class SerialResource {
 public:
  SerialResource(Scheduler* sched, std::string name)
      : sched_(sched), name_(std::move(name)), created_(sched->now()) {}

  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  // Occupies the resource for `hold`, queueing FIFO behind earlier users.
  // The reservation (and its trace records) is made at the call; the
  // returned awaiter completes when it ends, without suspending if it ends
  // now.  A plain awaiter, not a coroutine: a reservation costs no frame.
  [[nodiscard]] auto Acquire(Duration hold) {
    Time start = std::max(sched_->now(), next_free_);
    queue_delay_last_ = start - sched_->now();
    max_queue_delay_ = std::max(max_queue_delay_, queue_delay_last_);
    next_free_ = start + hold;
    busy_time_ += hold;
    // One complete span per reservation on the resource's own track (link
    // transmissions, CPU charges), plus queue-delay and utilization
    // counters.  The span starts at the reservation start, not now(), so a
    // queued transmission renders where the link actually carried it.
    PANDORA_TRACE_COMPLETE(sched_->trace(), trace_span_site_, name_, start, hold);
    PANDORA_TRACE_COUNTER(sched_->trace(), trace_queue_site_, name_ + ".queue_us",
                          queue_delay_last_);
    PANDORA_TRACE_COUNTER(sched_->trace(), trace_util_site_, name_ + ".util_pct",
                          static_cast<int64_t>(Utilization() * 100.0));
    return sched_->WaitUntil(next_free_);
  }

  // Time at which a new acquisition would begin.
  Time next_free() const { return std::max(sched_->now(), next_free_); }

  // Backlog visible right now: how long a new arrival would wait.
  Duration current_queue_delay() const { return std::max<Duration>(0, next_free_ - sched_->now()); }

  // Fraction of time busy since construction.
  double Utilization() const {
    Duration elapsed = sched_->now() - created_;
    if (elapsed <= 0) {
      return 0.0;
    }
    return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
  }

  Duration busy_time() const { return busy_time_; }
  Duration max_queue_delay() const { return max_queue_delay_; }
  const std::string& name() const { return name_; }
  Scheduler* scheduler() const { return sched_; }

 private:
  Scheduler* sched_;
  std::string name_;
  Time next_free_ = 0;
  const Time created_;
  Duration busy_time_ = 0;
  Duration queue_delay_last_ = 0;
  Duration max_queue_delay_ = 0;
  TraceSiteId trace_span_site_ = 0;
  TraceSiteId trace_queue_site_ = 0;
  TraceSiteId trace_util_site_ = 0;
};

// One board's embedded CPU.  Processes charge microsecond costs for the
// compute they perform; the costs serialize on the board's single CPU.
class CpuModel : public SerialResource {
 public:
  CpuModel(Scheduler* sched, std::string name) : SerialResource(sched, std::move(name)) {}

  // Charge `cost` microseconds of compute.
  [[nodiscard]] auto Consume(Duration cost) { return Acquire(cost); }
};

// A serial transmission resource with a bit rate: an Inmos link, a network
// interface, or a bridged ATM path segment.
class BandwidthGate : public SerialResource {
 public:
  BandwidthGate(Scheduler* sched, std::string name, int64_t bits_per_second)
      : SerialResource(sched, std::move(name)), bits_per_second_(bits_per_second) {}

  int64_t bits_per_second() const { return bits_per_second_; }

  Duration TransmissionTime(size_t bytes) const {
    // ceil(bytes * 8 / bps) in microseconds.
    int64_t bits = static_cast<int64_t>(bytes) * 8;
    return (bits * kSecond + bits_per_second_ - 1) / bits_per_second_;
  }

  // Transmits `bytes`, queueing whole (non-interleaved) behind earlier
  // transmissions.  Completes when the last bit clears the gate.
  [[nodiscard]] auto Transmit(size_t bytes) { return Acquire(TransmissionTime(bytes)); }

 private:
  int64_t bits_per_second_;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_RESOURCE_H_
