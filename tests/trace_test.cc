// Tests for the tracing & telemetry subsystem (src/trace/).
//
// Two layers: unit tests of the recorder itself (interning, capacity,
// histograms, macro guards), and a golden export test that runs a real
// two-box audio call with tracing on and checks that the exported
// Chrome/Perfetto JSON is structurally sound — every event carries the
// required fields, B/E spans balance per track, timestamps are monotonic.
// Finally a determinism guard: a traced run must produce byte-identical
// stream metrics to an untraced one.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/trace/trace.h"

namespace pandora {
namespace {

// --- A minimal JSON parser, just enough to validate the export ---------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return false;
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }
  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }
  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) {
      return false;
    }
    SkipWs();
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return false;
        }
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            *out += esc;
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'b':
          case 'f':
          case 'r':
            *out += ' ';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return false;
            }
            pos_ += 4;  // escaped control character; content irrelevant here
            *out += '?';
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }
  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Recorder unit tests ------------------------------------------------------

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  TraceSiteId site = 0;
  PANDORA_TRACE_BEGIN(&rec, site, std::string("proc.a"));
  PANDORA_TRACE_END(&rec, site);
  EXPECT_EQ(site, 0u);  // name_expr never evaluated, nothing interned
  EXPECT_EQ(rec.event_count(), 0u);
  // A null recorder is equally inert.
  TraceRecorder* null_rec = nullptr;
  PANDORA_TRACE_COUNTER(null_rec, site, std::string("x"), 1);
  EXPECT_EQ(site, 0u);
}

TEST(TraceRecorderTest, SitesInternOnceAndDedupeByName) {
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  rec.Enable();
  TraceSiteId a = 0;
  TraceSiteId b = 0;
  PANDORA_TRACE_INSTANT(&rec, a, std::string("proc.tick"));
  PANDORA_TRACE_INSTANT(&rec, b, std::string("proc.tick"));
  EXPECT_NE(a, 0u);
  EXPECT_EQ(a, b);  // same name -> same track from a different call site
  EXPECT_EQ(rec.event_count(), 2u);
}

TEST(TraceRecorderTest, CapacityDropsAndCounts) {
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  rec.Enable(/*max_events=*/4);
  TraceSiteId site = 0;
  for (int i = 0; i < 10; ++i) {
    PANDORA_TRACE_COUNTER(&rec, site, std::string("proc.n"), i);
  }
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.dropped_events(), 6u);
}

TEST(TraceRecorderTest, HistogramBucketsAndQuantiles) {
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  rec.Enable();
  TraceSiteId hist = 0;
  for (int64_t v : {1, 2, 3, 1000, 4000}) {
    PANDORA_TRACE_HISTOGRAM(&rec, hist, std::string("lat"), "us", v);
  }
  ASSERT_EQ(rec.histograms().size(), 1u);
  const TraceHistogram& h = rec.histograms()[0];
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 4000);
  EXPECT_DOUBLE_EQ(h.sum, 5006.0);
  uint64_t total = 0;
  for (uint64_t b : h.buckets) {
    total += b;
  }
  EXPECT_EQ(total, 5u);
}

TEST(TraceRecorderTest, HistogramQuantileIsAConservativeUpperBound) {
  // TraceHistogramQuantile backs the bench gates: it reports the upper edge
  // of the power-of-2 bucket holding the requested rank, never below the
  // true value and never above the recorded max.
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  rec.Enable();
  TraceSiteId hist = 0;
  for (int64_t v = 1; v <= 100; ++v) {
    PANDORA_TRACE_HISTOGRAM(&rec, hist, std::string("lat"), "us", v);
  }
  ASSERT_EQ(rec.histograms().size(), 1u);
  const TraceHistogram& h = rec.histograms()[0];
  const int64_t p50 = TraceHistogramQuantile(h, 0.5);
  const int64_t p99 = TraceHistogramQuantile(h, 0.99);
  EXPECT_GE(p50, 50);
  EXPECT_LE(p50, 100);
  EXPECT_GE(p99, 99);
  EXPECT_LE(p99, h.max);
  EXPECT_LE(p50, p99);
  // Degenerate histogram: no samples means no estimate.
  TraceHistogram empty;
  EXPECT_EQ(TraceHistogramQuantile(empty, 0.99), 0);
}

TEST(TraceRecorderTest, ExportClosesOpenSpans) {
  TraceRecorder rec;
  Time clock = 0;
  rec.BindClock(&clock);
  rec.Enable();
  TraceSiteId site = 0;
  PANDORA_TRACE_BEGIN(&rec, site, std::string("proc.run"));
  clock = 10;
  PANDORA_TRACE_END(&rec, site);
  clock = 20;
  PANDORA_TRACE_BEGIN(&rec, site, std::string("proc.run"));  // left open on purpose

  JsonValue root;
  ASSERT_TRUE(JsonParser(rec.ExportJson()).Parse(&root));
  int begins = 0;
  int ends = 0;
  for (const JsonValue& event : root.At("traceEvents").array) {
    if (event.At("ph").str == "B") {
      ++begins;
    } else if (event.At("ph").str == "E") {
      ++ends;
    }
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(ends, 2);  // the dangling B was closed synthetically
}

// --- Golden export from a real simulation ------------------------------------

PandoraBox::Options BoxOptions(const std::string& name) {
  PandoraBox::Options options;
  options.name = name;
  options.with_video = false;
  return options;
}

TEST(TraceExportTest, TwoBoxAudioCallExportsWellFormedTrace) {
  Simulation sim;
  PandoraBox& tx = sim.AddBox(BoxOptions("tx"));
  PandoraBox& rx = sim.AddBox(BoxOptions("rx"));
  sim.scheduler().trace()->Enable();
  sim.Start();
  StreamId stream = sim.SendAudio(tx, rx);

  // Ask the sender for a status report so the trace carries at least one
  // control-plane instant mirrored by the ReportCollector.
  auto commander = [](CommandChannel* cmd, StreamId s) -> Process {
    co_await cmd->Send(Command{CommandVerb::kReportStatus, s, 0, 0});
  };
  sim.scheduler().Spawn(commander(&tx.audio_sender().commands(), stream), "host.status");

  sim.RunFor(Millis(500));

  std::string json = sim.scheduler().trace()->ExportJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << "export is not valid JSON";
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(root.Has("traceEvents"));
  ASSERT_TRUE(root.Has("displayTimeUnit"));
  ASSERT_TRUE(root.Has("pandoraHistograms"));
  EXPECT_EQ(root.At("pandoraDroppedEvents").number, 0.0);

  const std::vector<JsonValue>& events = root.At("traceEvents").array;
  ASSERT_GT(events.size(), 100u);

  // Every event carries the required trace-event fields, with metadata
  // ('M') naming the tracks.
  bool saw_begin = false;
  bool saw_complete = false;
  bool saw_depth_counter = false;
  bool saw_instant = false;
  bool saw_process_meta = false;
  std::map<std::pair<double, double>, int> depth_by_track;
  std::map<std::pair<double, double>, double> last_ts_by_track;
  for (const JsonValue& event : events) {
    ASSERT_TRUE(event.Has("name"));
    ASSERT_TRUE(event.Has("ph"));
    ASSERT_TRUE(event.Has("pid"));
    ASSERT_TRUE(event.Has("tid"));
    ASSERT_EQ(event.At("ph").str.size(), 1u);
    const std::string& ph = event.At("ph").str;
    if (ph == "M") {
      saw_process_meta |= event.At("name").str == "process_name";
      continue;
    }
    ASSERT_TRUE(event.Has("ts"));
    std::pair<double, double> track{event.At("pid").number, event.At("tid").number};
    double ts = event.At("ts").number;
    auto last = last_ts_by_track.find(track);
    if (last != last_ts_by_track.end()) {
      EXPECT_GE(ts, last->second) << "timestamps must be monotonic per track";
    }
    last_ts_by_track[track] = ts;
    if (ph == "B") {
      saw_begin = true;
      ++depth_by_track[track];
    } else if (ph == "E") {
      --depth_by_track[track];
      EXPECT_GE(depth_by_track[track], 0) << "E without a matching open B";
    } else if (ph == "X") {
      saw_complete = true;
      EXPECT_TRUE(event.Has("dur"));
    } else if (ph == "C") {
      EXPECT_TRUE(event.Has("args"));
      const std::string& name = event.At("name").str;
      saw_depth_counter |= name.size() > 6 && name.rfind(".depth") == name.size() - 6;
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(event.At("s").str, "t");
    }
  }
  for (const auto& [track, depth] : depth_by_track) {
    EXPECT_EQ(depth, 0) << "unbalanced span on pid=" << track.first << " tid=" << track.second;
  }
  EXPECT_TRUE(saw_begin) << "no scheduler run-slice spans";
  EXPECT_TRUE(saw_complete) << "no link/CPU transmission spans";
  EXPECT_TRUE(saw_depth_counter) << "no buffer occupancy counters";
  EXPECT_TRUE(saw_instant) << "no instant events (report mirror)";
  EXPECT_TRUE(saw_process_meta) << "no process_name metadata";

  // Per-(stream, hop) latency histograms made it into the custom section.
  const std::vector<JsonValue>& hists = root.At("pandoraHistograms").array;
  ASSERT_FALSE(hists.empty());
  bool saw_net_latency = false;
  for (const JsonValue& h : hists) {
    ASSERT_TRUE(h.Has("name"));
    ASSERT_TRUE(h.Has("count"));
    ASSERT_TRUE(h.Has("buckets"));
    EXPECT_EQ(h.At("buckets").array.size(), static_cast<size_t>(kTraceHistogramBuckets));
    saw_net_latency |= h.At("name").str.find(".net.") != std::string::npos &&
                       h.At("count").number > 0;
  }
  EXPECT_TRUE(saw_net_latency) << "no populated network latency histogram";
}

// --- Determinism guard --------------------------------------------------------

struct RunMetrics {
  uint64_t played = 0;
  uint64_t underruns = 0;
  uint64_t missing = 0;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t clawback_drops = 0;
  uint64_t context_switches = 0;
  uint64_t latency_count = 0;
  double latency_mean = 0.0;
  double latency_max = 0.0;
};

RunMetrics RunSeededCall(bool traced) {
  Simulation sim(/*seed=*/1234);
  PandoraBox& tx = sim.AddBox(BoxOptions("tx"));
  PandoraBox& rx = sim.AddBox(BoxOptions("rx"));
  if (traced) {
    sim.scheduler().trace()->Enable();
  }
  sim.Start();
  // A lossy, jittery path so the run exercises drops, clawback and the
  // degradation machinery — the parts most tempted to consult the recorder.
  CallPath path;
  path.direct.loss_rate = 0.01;
  path.direct.jitter_max = Millis(5);
  StreamId stream = sim.SendAudio(tx, rx, path);
  sim.RunFor(Seconds(3));

  RunMetrics m;
  m.played = rx.codec_out().played_blocks();
  m.underruns = rx.codec_out().underruns();
  m.missing = rx.audio_receiver().total_missing();
  m.delivered = sim.network().total_delivered();
  m.lost = sim.network().total_lost();
  m.clawback_drops = rx.clawback_bank().TotalStats().clawback_drops;
  m.context_switches = sim.scheduler().context_switches();
  const StatAccumulator* latency = rx.mixer().LatencyFor(stream);
  if (latency != nullptr) {
    m.latency_count = latency->count();
    m.latency_mean = latency->Mean();
    m.latency_max = latency->max();
  }
  return m;
}

TEST(TraceDeterminismTest, TracingDoesNotPerturbTheSimulation) {
  RunMetrics off = RunSeededCall(/*traced=*/false);
  RunMetrics on = RunSeededCall(/*traced=*/true);
  EXPECT_EQ(off.played, on.played);
  EXPECT_EQ(off.underruns, on.underruns);
  EXPECT_EQ(off.missing, on.missing);
  EXPECT_EQ(off.delivered, on.delivered);
  EXPECT_EQ(off.lost, on.lost);
  EXPECT_EQ(off.clawback_drops, on.clawback_drops);
  EXPECT_EQ(off.context_switches, on.context_switches);
  EXPECT_EQ(off.latency_count, on.latency_count);
  EXPECT_DOUBLE_EQ(off.latency_mean, on.latency_mean);
  EXPECT_DOUBLE_EQ(off.latency_max, on.latency_max);
  // The comparison is only meaningful if the call actually flowed.
  EXPECT_GT(off.played, 500u);
  EXPECT_GT(off.lost, 0u);
}

// --- Outcome pins -------------------------------------------------------------
//
// What Pandora did, not how the engine scheduled it: blocks played, segments
// lost, frames shown, segments recorded, and the delay the listener heard.
// No dispatch count or order appears here, so a change that removes
// processes from the data path (or reorders work within one simulated
// instant) must leave every value as it is.

TEST(OutcomePinTest, SeededLossyCallOutcomes) {
  const RunMetrics m = RunSeededCall(/*traced=*/false);
  EXPECT_EQ(m.played, 1498u);
  EXPECT_EQ(m.underruns, 0u);
  EXPECT_EQ(m.missing, 6u);
  EXPECT_EQ(m.delivered, 743u);
  EXPECT_EQ(m.lost, 6u);
  EXPECT_EQ(m.clawback_drops, 0u);
  EXPECT_EQ(m.latency_count, 1483u);
  EXPECT_NEAR(m.latency_mean, 10523.386378961564, 1e-6);
  EXPECT_EQ(m.latency_max, 10639.0);
}

// Three boxes with video: a and b call each other (audio and video), b and
// c call each other (audio), c sends video to a at half rate, a's microphone
// is split to c as well, and c records the split copy.
struct MeshOutcome {
  std::vector<uint64_t> played, underruns, missing, clawback_drops, frames;
  uint64_t delivered = 0;
  uint64_t lost = 0;
  uint64_t recorded = 0;
  uint64_t latency_count = 0;
  double latency_mean = 0.0;
  double latency_max = 0.0;
};

MeshOutcome RunAvMesh() {
  Simulation sim(/*seed=*/77);
  PandoraBox::Options a_options = BoxOptions("a");
  a_options.with_video = true;
  PandoraBox::Options b_options = BoxOptions("b");
  b_options.with_video = true;
  PandoraBox::Options c_options = BoxOptions("c");
  c_options.with_video = true;
  c_options.with_repository = true;
  PandoraBox& a = sim.AddBox(a_options);
  PandoraBox& b = sim.AddBox(b_options);
  PandoraBox& c = sim.AddBox(c_options);
  sim.Start();
  CallPath path;
  path.direct.loss_rate = 0.005;
  path.direct.jitter_max = Millis(3);
  const StreamId a_at_b = sim.SendAudio(a, b, path);
  sim.SendAudio(b, a, path);
  sim.SendAudio(b, c, path);
  sim.SendAudio(c, b, path);
  sim.SendVideo(a, b, Rect{0, 0, 64, 48}, 1, 1, 4, path);
  sim.SendVideo(b, a, Rect{0, 0, 64, 48}, 1, 1, 4, path);
  sim.SendVideo(c, a, Rect{0, 0, 64, 48}, 1, 2, 4, path);
  const StreamId a_at_c = sim.SplitAudioTo(a, a.mic_stream(), c, path);
  sim.RecordStream(c, a_at_c);
  sim.RunFor(Seconds(3));

  MeshOutcome m;
  for (PandoraBox* box : {&a, &b, &c}) {
    m.played.push_back(box->codec_out().played_blocks());
    m.underruns.push_back(box->codec_out().underruns());
    m.missing.push_back(box->audio_receiver().total_missing());
    m.clawback_drops.push_back(box->clawback_bank().TotalStats().clawback_drops);
    m.frames.push_back(box->display()->frames_displayed());
  }
  m.delivered = sim.network().total_delivered();
  m.lost = sim.network().total_lost();
  m.recorded = c.repository()->segments_recorded();
  const StatAccumulator* latency = b.mixer().LatencyFor(a_at_b);
  if (latency != nullptr) {
    m.latency_count = latency->count();
    m.latency_mean = latency->Mean();
    m.latency_max = latency->max();
  }
  return m;
}

TEST(OutcomePinTest, AvMeshWithSplitAndRecordingOutcomes) {
  const MeshOutcome m = RunAvMesh();
  using V = std::vector<uint64_t>;
  EXPECT_EQ(m.played, (V{1498, 1498, 1498}));
  EXPECT_EQ(m.underruns, (V{0, 0, 0}));
  EXPECT_EQ(m.missing, (V{4, 10, 5}));
  EXPECT_EQ(m.clawback_drops, (V{0, 0, 0}));
  EXPECT_EQ(m.frames, (V{108, 73, 0}));
  EXPECT_EQ(m.delivered, 4462u);
  EXPECT_EQ(m.lost, 23u);
  EXPECT_EQ(m.recorded, 746u);
  EXPECT_EQ(m.latency_count, 1488u);
  EXPECT_NEAR(m.latency_mean, 9158.7614247311831, 1e-6);
  EXPECT_EQ(m.latency_max, 9315.0);
}

}  // namespace
}  // namespace pandora
