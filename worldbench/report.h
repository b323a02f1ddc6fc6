// Output side of the benchmark: wall-clock spans around calls into each
// layer, the named-metric list, the machine fingerprint and peak RSS.
#ifndef WORLDBENCH_REPORT_H_
#define WORLDBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace worldbench {

// Monotonic wall clock in nanoseconds.
int64_t WallNs();

// Benchmark-side spans, written at exit as Chrome/Perfetto trace JSON.  A
// span's parent is whichever span was open when it began; every span of one
// invocation carries the same run id.  Recording never allocates once
// Enable() has reserved capacity (spans past it are not recorded), so
// spans may sit inside a region whose allocations are being counted.
class SpanRecorder {
 public:
  void Enable(std::string run_id, size_t capacity);
  bool enabled() const { return enabled_; }

  // Opens a span named by a string literal; `arg` is an optional index
  // (box number, slice number).  Returns the span id, or -1 when disabled.
  int Begin(const char* name, int64_t arg = -1);
  void End(int id);

  size_t span_count() const { return spans_.size(); }
  // Writes {"traceEvents": [...], "otherData": <other_json>}.
  bool WriteChromeJson(const std::string& path, const std::string& other_json) const;

 private:
  struct Span {
    const char* name = "";
    int64_t arg = -1;
    int parent = -1;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  bool enabled_ = false;
  std::string run_id_;
  int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int64_t arg = -1)
      : rec_(rec), id_(rec == nullptr ? -1 : rec->Begin(name, arg)) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered list of named metrics with units.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }
  // {"name": {"value": v, "unit": "u"}, ...}, every value with 17 digits.
  std::string Json() const;
  // One aligned "name value unit" line per metric.
  std::string Table() const;
  // False if any value is NaN or infinite (JSON cannot carry them).
  bool AllFinite() const;

 private:
  std::vector<Metric> items_;
};

// {"nproc": .., "cpu": "..", "compiler": "..", "build_type": "..", "cxx_flags": ".."}
std::string MachineFingerprintJson();

// Host-speed probe: the wall time of a fixed amount of event-loop-shaped
// work written here, independent of src/ (a binary heap of timed events,
// lookups in a 4096-node std::map, malloc/free of small blocks), in ns.
// On a shared host one core at a time is often slowed by a co-tenant for a
// few hundred milliseconds; the probe slows with it about as much as the
// simulator does.  The first call builds the probe's tables (and allocates);
// make it before any region whose allocations are counted.
int64_t HostProbeNs();

// HostProbeNs() on the reference host (4-core Intel Xeon) when uncontended.
// Host times are scaled by probe / reference so that they read as on that
// host: a co-tenant's slowdown is not mistaken for a slower simulator.
inline constexpr double kReferenceProbeNs = 320'000.0;

// Keeps a single-threaded measurement on the least-contended allowed CPU:
// Steer() probes every allowed CPU and pins the calling thread to the
// fastest.  A no-op when only one CPU is allowed.
class CpuSteering {
 public:
  void Enable();
  void Steer();

 private:
  bool enabled_ = false;
  std::vector<int> cpus_;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

std::string JsonEscape(const std::string& s);

}  // namespace worldbench

#endif  // WORLDBENCH_REPORT_H_
