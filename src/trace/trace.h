// Simulated-time tracing & telemetry subsystem.
//
// The paper's control plane treats observability as first-class: reports are
// "collected from all main processes, and multiplexed together" (sections 1.1,
// 3.8).  TraceRecorder extends that idea to a full event timeline: spans,
// instants, counters and fixed-bucket latency histograms, stamped with the
// *simulated* clock (never wall time, so tracing cannot perturb determinism
// or the E4 CPU calibration) and exported as Chrome/Perfetto trace-event JSON
// that loads directly in ui.perfetto.dev.
//
// Design rules:
//   - Zero overhead when disabled: every PANDORA_TRACE_* macro guards on
//     `rec != nullptr && rec->enabled()` before evaluating anything else.
//   - No allocation on the hot path when enabled: call sites cache an
//     interned TraceSiteId in a caller-owned variable (the `idvar` macro
//     argument); the name expression is evaluated only on the first hit.
//     Event storage is reserved up front by Enable(); when full, events are
//     dropped and counted rather than grown.
//   - Tracks: a site name "tx.audio.mixer" is grouped under process "tx"
//     (the prefix before the first '.'), one thread track per site.  This
//     gives the "one track per board/process" layout the paper's per-board
//     process meshes call for.
//
// Instrumentation outside src/trace/ must go through the macros, never call
// TraceRecorder::Record* directly (enforced by the pandora-lint
// `trace-macros` rule): the macros are where the disabled-path guarantees
// live.
#ifndef PANDORA_SRC_TRACE_TRACE_H_
#define PANDORA_SRC_TRACE_TRACE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/time.h"

namespace pandora {

// 0 is "not yet interned"; valid ids start at 1.
using TraceSiteId = uint32_t;

// Chrome trace-event phases used by the recorder.
inline constexpr char kTracePhaseBegin = 'B';
inline constexpr char kTracePhaseEnd = 'E';
inline constexpr char kTracePhaseComplete = 'X';
inline constexpr char kTracePhaseInstant = 'i';
inline constexpr char kTracePhaseCounter = 'C';
inline constexpr char kTracePhaseAsyncBegin = 'b';
inline constexpr char kTracePhaseAsyncEnd = 'e';

// Power-of-two latency buckets: bucket i counts values v with
// 2^(i-1) <= v < 2^i (bucket 0 counts v <= 0).  40 buckets cover every
// representable simulated duration we care about (~2^39 us > 6 days).
inline constexpr int kTraceHistogramBuckets = 40;

struct TraceHistogram {
  std::string name;
  std::string unit;
  uint64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
  double sum = 0.0;
  std::array<uint64_t, kTraceHistogramBuckets> buckets{};
};

// Smallest bucket upper bound covering quantile `q` (clamped to the observed
// max) — a conservative percentile estimate from the power-of-two buckets.
// Benches report gate metrics (e.g. p99 join-to-first-segment latency)
// through this, so regressions show up even when only the histogram is kept.
int64_t TraceHistogramQuantile(const TraceHistogram& h, double q);

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1u << 20;  // ~40 MB of events

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // The recorder reads simulated time through this pointer; the Scheduler
  // binds its own clock at construction.  Must outlive the recorder.
  void BindClock(const Time* clock) { clock_ = clock; }

  // Reserves event storage and starts recording.  Idempotent; a second call
  // with a larger capacity grows the reservation.
  void Enable(size_t max_events = kDefaultCapacity);
  bool enabled() const { return enabled_; }

  size_t event_count() const { return events_.size(); }
  uint64_t dropped_events() const { return dropped_; }

  // --- Interning (cold path; may allocate) ---------------------------------

  // Returns a stable id for `name`, creating the site on first use.  Sites
  // are deduplicated by name, so two call sites sharing a name share a track.
  TraceSiteId InternSite(std::string_view name);
  // As InternSite, but also names the two instant-event argument slots.
  TraceSiteId InternSiteArgs(std::string_view name, std::string_view arg1, std::string_view arg2);
  // Histogram ids live in a separate namespace from event sites.
  TraceSiteId InternHistogram(std::string_view name, std::string_view unit);

  // Fresh id for correlating an async begin/end pair (rendezvous waits).
  uint64_t NextAsyncId() { return ++async_seq_; }

  // --- Recording (hot path; never allocates) -------------------------------
  //
  // Call through the PANDORA_TRACE_* macros, which own the enabled checks
  // and lazy interning; see the lint rule note above.

  void RecordBegin(TraceSiteId site) { Append(kTracePhaseBegin, site, 0, 0); }
  void RecordEnd(TraceSiteId site) { Append(kTracePhaseEnd, site, 0, 0); }
  void RecordComplete(TraceSiteId site, Time start, Duration dur) {
    AppendAt(kTracePhaseComplete, site, start, dur, 0);
  }
  void RecordInstant(TraceSiteId site) { Append(kTracePhaseInstant, site, 0, 0); }
  void RecordInstantArgs(TraceSiteId site, int64_t arg1, int64_t arg2) {
    Append(kTracePhaseInstant, site, arg1, arg2);
  }
  void RecordCounter(TraceSiteId site, int64_t value) { Append(kTracePhaseCounter, site, value, 0); }
  void RecordAsyncBegin(TraceSiteId site, uint64_t id) {
    Append(kTracePhaseAsyncBegin, site, static_cast<int64_t>(id), 0);
  }
  void RecordAsyncEnd(TraceSiteId site, uint64_t id) {
    Append(kTracePhaseAsyncEnd, site, static_cast<int64_t>(id), 0);
  }
  void RecordHistogram(TraceSiteId hist, int64_t value);

  // --- Export --------------------------------------------------------------

  // Chrome trace-event JSON (object form).  Events are stably sorted by
  // timestamp, unbalanced B spans are closed synthetically, and custom
  // sections carry the histograms and drop count.  Deterministic for a
  // deterministic run.
  std::string ExportJson() const;
  // Writes ExportJson() to `path`; false on I/O error.
  bool ExportJsonTo(const std::string& path) const;

  // Copies every event, site and histogram from `other` into this recorder,
  // re-interning names with `prefix` prepended (so "tx.audio" from shard 2
  // becomes "s2:tx.audio" and lands on its own process track) and offsetting
  // async ids past this recorder's to keep rendezvous pairs correlated.
  // Same-name histograms accumulate.  ShardSet merges per-shard buffers
  // through this into one exportable timeline; the merge target needs no
  // clock and never records live.
  void MergeFrom(const TraceRecorder& other, std::string_view prefix);

  const std::vector<TraceHistogram>& histograms() const { return histograms_; }

 private:
  struct Site {
    std::string name;
    std::string arg1;  // instant-event argument names ("" = no args)
    std::string arg2;
    uint32_t pid = 1;
  };
  struct Event {
    Time ts = 0;
    int64_t value = 0;   // X: dur | C: value | b/e: async id | i: arg1
    int64_t value2 = 0;  // i: arg2
    TraceSiteId site = 0;
    char ph = 0;
  };

  Time Now() const { return clock_ != nullptr ? *clock_ : 0; }
  void Append(char ph, TraceSiteId site, int64_t value, int64_t value2) {
    AppendAt(ph, site, Now(), value, value2);
  }
  void AppendAt(char ph, TraceSiteId site, Time ts, int64_t value, int64_t value2) {
    if (!enabled_ || site == 0) {
      return;
    }
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{ts, value, value2, site, ph});
  }
  uint32_t InternPid(std::string_view site_name);

  const Time* clock_ = nullptr;
  bool enabled_ = false;
  size_t capacity_ = 0;
  uint64_t dropped_ = 0;
  uint64_t async_seq_ = 0;

  std::vector<Event> events_;
  std::vector<Site> sites_;  // index = TraceSiteId - 1
  std::map<std::string, TraceSiteId, std::less<>> site_ids_;
  std::vector<std::string> pid_names_;  // index = pid - 1
  std::map<std::string, uint32_t, std::less<>> pid_ids_;
  std::vector<TraceHistogram> histograms_;  // index = TraceSiteId - 1
  std::map<std::string, TraceSiteId, std::less<>> histogram_ids_;
};

// RAII duration span; emitted as a B/E pair on the site's own track, so a
// span may cross co_await suspension points without unbalancing the
// scheduler's per-process run-slice tracks.  Construct via
// PANDORA_TRACE_SPAN, which resolves the recorder to nullptr when disabled.
class TraceScope {
 public:
  TraceScope(TraceRecorder* rec, TraceSiteId site) : rec_(rec), site_(site) {
    if (rec_ != nullptr) {
      rec_->RecordBegin(site_);
    }
  }
  ~TraceScope() {
    if (rec_ != nullptr) {
      rec_->RecordEnd(site_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* rec_;
  TraceSiteId site_;
};

// --- Guarded macros ---------------------------------------------------------
//
// Common shape: PANDORA_TRACE_X(rec, idvar, name_expr, ...).
//   rec       TraceRecorder* (may be null).
//   idvar     caller-owned TraceSiteId lvalue, zero-initialised; caches the
//             interned site so steady-state recording never touches a map.
//   name_expr evaluated only while interning (first enabled hit), so it may
//             build a std::string without taxing the hot path.
//
// Every macro is an expression-statement usable where a statement is
// expected; none evaluates any argument when tracing is disabled.

#define PANDORA_TRACE_BEGIN(rec, idvar, name_expr)          \
  do {                                                      \
    ::pandora::TraceRecorder* _pandora_tr = (rec);          \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) { \
      if ((idvar) == 0) {                                   \
        (idvar) = _pandora_tr->InternSite((name_expr));     \
      }                                                     \
      _pandora_tr->RecordBegin((idvar));                    \
    }                                                       \
  } while (false)

#define PANDORA_TRACE_END(rec, idvar)                                          \
  do {                                                                         \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                             \
    if (_pandora_tr != nullptr && _pandora_tr->enabled() && (idvar) != 0) {    \
      _pandora_tr->RecordEnd((idvar));                                         \
    }                                                                          \
  } while (false)

// RAII span covering the enclosing scope.  The helper lambda resolves to a
// null recorder when tracing is off, so the TraceScope is inert.
#define PANDORA_TRACE_SPAN(rec, idvar, name_expr)                        \
  ::pandora::TraceScope PANDORA_TRACE_CONCAT_(pandora_trace_scope_,      \
                                              __LINE__)(                 \
      [&]() -> ::pandora::TraceRecorder* {                               \
        ::pandora::TraceRecorder* _pandora_tr = (rec);                   \
        if (_pandora_tr == nullptr || !_pandora_tr->enabled()) {         \
          return nullptr;                                                \
        }                                                                \
        if ((idvar) == 0) {                                              \
          (idvar) = _pandora_tr->InternSite((name_expr));                \
        }                                                                \
        return _pandora_tr;                                              \
      }(),                                                               \
      (idvar))

#define PANDORA_TRACE_COMPLETE(rec, idvar, name_expr, start, dur) \
  do {                                                            \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) {       \
      if ((idvar) == 0) {                                         \
        (idvar) = _pandora_tr->InternSite((name_expr));           \
      }                                                           \
      _pandora_tr->RecordComplete((idvar), (start), (dur));       \
    }                                                             \
  } while (false)

#define PANDORA_TRACE_INSTANT(rec, idvar, name_expr)        \
  do {                                                      \
    ::pandora::TraceRecorder* _pandora_tr = (rec);          \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) { \
      if ((idvar) == 0) {                                   \
        (idvar) = _pandora_tr->InternSite((name_expr));     \
      }                                                     \
      _pandora_tr->RecordInstant((idvar));                  \
    }                                                       \
  } while (false)

#define PANDORA_TRACE_INSTANT2(rec, idvar, name_expr, a1name, a1val, a2name, a2val) \
  do {                                                                              \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                                  \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) {                         \
      if ((idvar) == 0) {                                                           \
        (idvar) = _pandora_tr->InternSiteArgs((name_expr), (a1name), (a2name));     \
      }                                                                             \
      _pandora_tr->RecordInstantArgs((idvar), (a1val), (a2val));                    \
    }                                                                               \
  } while (false)

// Dynamic-name instant for cold paths (e.g. mirroring throttled Reports):
// interns by name on every hit, so do not use on hot paths.
#define PANDORA_TRACE_INSTANT_DYN(rec, name_expr, a1val, a2val)                     \
  do {                                                                              \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                                  \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) {                         \
      ::pandora::TraceSiteId _pandora_site =                                        \
          _pandora_tr->InternSiteArgs((name_expr), "value", "severity");            \
      _pandora_tr->RecordInstantArgs(_pandora_site, (a1val), (a2val));              \
    }                                                                               \
  } while (false)

#define PANDORA_TRACE_COUNTER(rec, idvar, name_expr, value) \
  do {                                                      \
    ::pandora::TraceRecorder* _pandora_tr = (rec);          \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) { \
      if ((idvar) == 0) {                                   \
        (idvar) = _pandora_tr->InternSite((name_expr));     \
      }                                                     \
      _pandora_tr->RecordCounter((idvar), (value));         \
    }                                                       \
  } while (false)

// Opens an async span and stores the correlation id into `id_lvalue` (left
// at 0 when tracing is off).  The id must be parked in heap-stable state —
// e.g. a channel's ParkedSender record — never in an awaiter subobject that
// could relocate across suspension.
#define PANDORA_TRACE_RENDEZVOUS_BEGIN(rec, idvar, name_expr, id_lvalue) \
  do {                                                                   \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                       \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) {              \
      if ((idvar) == 0) {                                                \
        (idvar) = _pandora_tr->InternSite((name_expr));                  \
      }                                                                  \
      (id_lvalue) = _pandora_tr->NextAsyncId();                          \
      _pandora_tr->RecordAsyncBegin((idvar), (id_lvalue));               \
    }                                                                    \
  } while (false)

#define PANDORA_TRACE_RENDEZVOUS_END(rec, idvar, id_value)                  \
  do {                                                                      \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                          \
    if (_pandora_tr != nullptr && _pandora_tr->enabled() && (idvar) != 0 && \
        (id_value) != 0) {                                                  \
      _pandora_tr->RecordAsyncEnd((idvar), (id_value));                     \
    }                                                                       \
  } while (false)

#define PANDORA_TRACE_HISTOGRAM(rec, idvar, name_expr, unit, value)  \
  do {                                                               \
    ::pandora::TraceRecorder* _pandora_tr = (rec);                   \
    if (_pandora_tr != nullptr && _pandora_tr->enabled()) {          \
      if ((idvar) == 0) {                                            \
        (idvar) = _pandora_tr->InternHistogram((name_expr), (unit)); \
      }                                                              \
      _pandora_tr->RecordHistogram((idvar), (value));                \
    }                                                                \
  } while (false)

#define PANDORA_TRACE_CONCAT_IMPL_(a, b) a##b
#define PANDORA_TRACE_CONCAT_(a, b) PANDORA_TRACE_CONCAT_IMPL_(a, b)

}  // namespace pandora

#endif  // PANDORA_SRC_TRACE_TRACE_H_
