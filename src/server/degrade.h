// Overload degradation policy: principles 1-3 (paper section 2.1).
//
// When a destination's decoupling buffer fills, something must be thrown
// away.  The paper ranks victims:
//   P1: incoming streams degrade before outgoing ones (the overloaded
//       user's own transmissions survive so the far end sees the problem
//       last) — REVERSED for repositories, which must record accurately;
//   P2: video degrades before audio (people can talk the problem through);
//   P3: the longest-open streams degrade first (an unexpected incoming
//       call gets bandwidth without the user first closing old streams).
//
// AdaptiveDegrader turns buffer-full signals into a suppression set over
// the active streams, sized by recent pressure and decayed by quiet time —
// timing and buffering decisions adapt to locally observed conditions
// (principle 8), no global coordination.
#ifndef PANDORA_SRC_SERVER_DEGRADE_H_
#define PANDORA_SRC_SERVER_DEGRADE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/runtime/time.h"
#include "src/segment/constants.h"

namespace pandora {

struct StreamAttrs {
  StreamId stream = kInvalidStream;
  bool incoming = false;  // arrived over the network (vs locally produced)
  bool audio = false;
  uint64_t open_order = 0;  // allocation stamp; lower = open longer

  bool operator==(const StreamAttrs&) const = default;
};

// True if `a` should be degraded before `b`.  `recording_priority` reverses
// the incoming/outgoing term (repositories protect incoming recordings).
inline bool DegradesBefore(const StreamAttrs& a, const StreamAttrs& b,
                           bool recording_priority = false) {
  bool a_incoming = recording_priority ? !a.incoming : a.incoming;
  bool b_incoming = recording_priority ? !b.incoming : b.incoming;
  if (a_incoming != b_incoming) {
    return a_incoming;  // P1: incoming first
  }
  if (a.audio != b.audio) {
    return !a.audio;  // P2: video first
  }
  return a.open_order < b.open_order;  // P3: oldest first
}

class AdaptiveDegrader {
 public:
  struct Options {
    // Quiet time after which one stream is released from suppression.
    Duration recovery_period = Millis(200);
    bool recording_priority = false;
  };

  AdaptiveDegrader() : AdaptiveDegrader(Options{}) {}
  explicit AdaptiveDegrader(const Options& options) : options_(options) {}

  // A destination buffer reported FULL at time `now`: widen suppression.
  void OnBufferFull(Time now) {
    ++suppressed_count_;
    last_pressure_ = now;
    next_recovery_ = now + options_.recovery_period;
  }

  // Called on traffic; shrinks suppression after quiet periods.
  void MaybeRecover(Time now) {
    while (suppressed_count_ > 0 && now >= next_recovery_) {
      --suppressed_count_;
      next_recovery_ += options_.recovery_period;
    }
  }

  // Should `victim`'s segment be dropped, given the streams currently
  // active towards this destination?  The `suppressed_count_` most
  // degradable streams are shed.
  //
  // The degradation ordering is a pure function of the active membership
  // (attrs never change after open), so it is sorted once per membership
  // change rather than once per segment; a suppression-count change only
  // moves the shed prefix boundary, which costs a prefix scan, not a sort.
  bool ShouldDrop(const StreamAttrs& victim, const std::vector<StreamAttrs>& active) const {
    if (suppressed_count_ == 0 || active.empty()) {
      return false;
    }
    if (active != cached_active_) {
      cached_active_ = active;
      cached_order_ = active;
      std::sort(cached_order_.begin(), cached_order_.end(),
                [this](const StreamAttrs& a, const StreamAttrs& b) {
                  return DegradesBefore(a, b, options_.recording_priority);
                });
    }
    size_t shed = std::min(static_cast<size_t>(suppressed_count_), cached_order_.size());
    for (size_t i = 0; i < shed; ++i) {
      if (cached_order_[i].stream == victim.stream) {
        return true;
      }
    }
    return false;
  }

  int suppressed_count() const { return suppressed_count_; }

 private:
  Options options_;
  int suppressed_count_ = 0;
  Time last_pressure_ = 0;
  Time next_recovery_ = 0;
  // Degradation-ordering cache: `cached_active_` is the membership the
  // cache was built from (as handed in), `cached_order_` the same streams
  // in DegradesBefore order.  Mutable: the cache is invisible to callers.
  mutable std::vector<StreamAttrs> cached_active_;
  mutable std::vector<StreamAttrs> cached_order_;
};

}  // namespace pandora

#endif  // PANDORA_SRC_SERVER_DEGRADE_H_
