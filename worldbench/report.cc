#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <thread>

namespace worldbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Enable(std::string run_id, size_t capacity) {
  enabled_ = true;
  run_id_ = std::move(run_id);
  origin_ns_ = WallNs();
  spans_.reserve(capacity);
  open_.reserve(64);
}

int SpanRecorder::Begin(const char* name, int64_t arg) {
  if (!enabled_) {
    return -1;
  }
  if (spans_.size() == spans_.capacity() || open_.size() == open_.capacity()) {
    return -1;
  }
  Span span;
  span.name = name;
  span.arg = arg;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = WallNs();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = WallNs();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

bool SpanRecorder::WriteChromeJson(const std::string& path, const std::string& other_json) const {
  std::string out = "{\"traceEvents\":[\n";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = static_cast<double>(s.start_ns - origin_ns_) / 1e3;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"worldbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run_id\":\"%s\",\"span\":%zu,"
                  "\"parent\":%d,\"arg\":%lld}}%s\n",
                  s.name, ts_us, dur_us, JsonEscape(run_id_).c_str(), i, s.parent,
                  static_cast<long long>(s.arg), i + 1 == spans_.size() ? "" : ",");
    out += buf;
  }
  out += "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":";
  out += other_json;
  out += "}\n";
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return false;
  }
  file << out;
  return static_cast<bool>(file.flush());
}

std::string MetricList::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (i == 0 ? "\"" : ", \"") + JsonEscape(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

std::string MetricList::Table() const {
  std::string out;
  char buf[256];
  for (const Metric& m : items_) {
    std::snprintf(buf, sizeof(buf), "  %-34s %18.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    out += buf;
  }
  return out;
}

bool MetricList::AllFinite() const {
  for (const Metric& m : items_) {
    if (!std::isfinite(m.value)) {
      return false;
    }
  }
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string MachineFingerprintJson() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\", \"compiler\": \"" +
         JsonEscape(std::string("g++ ") + __VERSION__) + "\", \"build_type\": \"" +
         WORLDBENCH_BUILD_TYPE + "\", \"cxx_flags\": \"" + WORLDBENCH_CXX_FLAGS + "\"}";
}

namespace {

// The probe's working set, built on its first call and never grown after.
struct ProbeState {
  std::map<uint32_t, uint32_t> table;
  std::vector<std::pair<uint64_t, uint32_t>> heap;
  void* ring[256] = {};
  uint64_t sink = 0;

  ProbeState() {
    for (uint32_t i = 0; i < 4096; ++i) {
      table.emplace(i * 2654435761u, i);
    }
    for (uint32_t i = 0; i < 512; ++i) {
      heap.emplace_back(uint64_t{i} * 37, i);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }
};

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

int64_t HostProbeNs() {
  static ProbeState state;
  const int64_t t0 = WallNs();
  uint64_t h = 1469598103934665603ull ^ state.sink;
  for (int k = 0; k < 1500; ++k) {
    std::pop_heap(state.heap.begin(), state.heap.end(), std::greater<>());
    std::pair<uint64_t, uint32_t>& event = state.heap.back();
    const auto it = state.table.lower_bound(static_cast<uint32_t>(h));
    h = (h ^ (it == state.table.end() ? event.second : it->second)) * 1099511628211ull;
    // malloc, not operator new: the probe never touches the allocation count.
    void*& slot = state.ring[h & 255];
    std::free(slot);
    slot = std::malloc(16 + (h >> 8) % 240);
    static_cast<uint8_t*>(slot)[0] = static_cast<uint8_t>(h);
    event.first += 1 + (h >> 20) % 1000;
    std::push_heap(state.heap.begin(), state.heap.end(), std::greater<>());
  }
  state.sink = h;
  return WallNs() - t0;
}

void CpuSteering::Enable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus_.push_back(c);
    }
  }
  enabled_ = cpus_.size() > 1;
  Steer();
}

void CpuSteering::Steer() {
  if (!enabled_) {
    return;
  }
  int best_cpu = cpus_.front();
  int64_t best_ns = INT64_MAX;
  for (int c : cpus_) {
    if (PinTo(c)) {
      const int64_t ns = HostProbeNs();
      if (ns < best_ns) {
        best_ns = ns;
        best_cpu = c;
      }
    }
  }
  PinTo(best_cpu);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace worldbench
