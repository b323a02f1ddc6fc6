// Simulation: the top-level facade — a scheduler, an ATM fabric, a host-side
// report log and any number of Pandora boxes, plus the host plumbing of
// section 1.1: "To set data flowing, it is necessary to allocate a new
// stream number, inform each process from the destination back to the
// source what is to be done to that stream, and then command the source to
// begin producing data.  The data will then flow indefinitely without any
// further interaction with the host."
#ifndef PANDORA_SRC_CORE_SIMULATION_H_
#define PANDORA_SRC_CORE_SIMULATION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/box.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"

namespace pandora {

// Options for one network leg (direct quality or bridged hops).
struct CallPath {
  std::vector<NetHop*> hops;
  HopQuality direct;
};

// World-building options: how many shards the world spans, how many OS
// worker threads execute them, and the conservative-sync lookahead.  The
// defaults build the classic single-shard world (bit-identical to the
// pre-shard engine).  In a spanning world every cross-shard call needs a
// final-stage propagation >= lookahead (AtmNetwork::OpenCircuit checks), so
// either use link latencies >= the default 1 ms or dial `lookahead` down to
// the minimum cross-shard link latency (DESIGN.md §14).
struct SimulationOptions {
  uint64_t seed = 1;
  int shards = 1;
  int threads = 1;
  Duration lookahead = Millis(1);
};

class Simulation {
 public:
  // One leg of host-plumbed traffic, remembered so churn (box crash and
  // restart) can tear down and re-establish exactly the same plumbing.
  struct CallRecord {
    enum class Kind { kAudio, kVideo } kind = Kind::kAudio;
    PandoraBox* src = nullptr;
    PandoraBox* dst = nullptr;
    StreamId src_stream = kInvalidStream;  // id at the source (mic / camera)
    StreamId at_dst = kInvalidStream;      // id at the destination (the VCI)
    CallPath path;
    // Camera parameters, for re-registering a crashed sender's capture.
    Rect rect;
    int rate_numer = 1;
    int rate_denom = 1;
    int segments_per_frame = 4;
    bool active = true;      // false once hung up for good
    bool suspended = false;  // a crashed endpoint took the leg down
    bool src_down = false;   // the sender crashed (its camera needs re-adding)
  };

  explicit Simulation(uint64_t seed = 1);
  explicit Simulation(const SimulationOptions& options);
  ~Simulation();

  // Shard 0's scheduler — the coordinator.  With the default options the
  // whole world lives here and the ShardSet's legacy fast path keeps runs
  // bit-identical to the pre-shard engine.  With `SimulationOptions::shards
  // > 1` the Simulation *spans* the set: each box (boards, port, processes)
  // runs on its resolved Options::shard, cross-shard circuits ride the
  // ShardSet mailboxes under the lookahead contract, and host-side entry
  // points (plumbing, crash/restart, record/play) must run on the
  // coordinator — between Run* calls or inside a ShardSet::PostGlobal
  // stop-the-world callback, which is how the fault driver injects churn.
  Scheduler& scheduler() { return shards_.scheduler(); }
  ShardSet& shard_set() { return shards_; }
  AtmNetwork& network() { return net_; }
  // Host-side report log.  Reports are collected per shard (a collector is
  // not thread-safe); `reports()` is shard 0's, which in a single-shard
  // world — and for every host-plumbed control report — is all of them.
  ReportCollector& reports() { return *reports_[0]; }
  ReportCollector& reports_for(int shard) { return *reports_.at(static_cast<size_t>(shard)); }
  Time now() const { return shards_.now(); }

  PandoraBox& AddBox(PandoraBox::Options options);

  // Starts every box (call after adding boxes, before Run*).
  void Start();

  void RunFor(Duration d) { shards_.RunFor(d); }
  void RunUntil(Time t) { shards_.RunUntil(t); }

  StreamId AllocateStream() { return next_stream_++; }

  // --- Host plumbing (destination back to source) ---------------------------

  // One-way live audio: src's microphone to dst's loudspeaker.  Returns the
  // stream id at the DESTINATION (per the paper, the VCI carries it).
  StreamId SendAudio(PandoraBox& src, PandoraBox& dst, const CallPath& path = {});

  // One-way live video: a camera rectangle of src shown on dst's display.
  StreamId SendVideo(PandoraBox& src, PandoraBox& dst, const Rect& rect, int rate_numer = 1,
                     int rate_denom = 1, int segments_per_frame = 4,
                     const CallPath& path = {});

  // Local camera shown on the box's own display (no network leg).
  StreamId ShowLocalVideo(PandoraBox& box, const Rect& rect, int rate_numer = 1,
                          int rate_denom = 1, int segments_per_frame = 4);

  // Adds dst as a further destination of an existing audio stream from src
  // (stream splitting, principles 5/6).  `src_stream` is the stream id at
  // the SOURCE box (e.g. src.mic_stream()).
  StreamId SplitAudioTo(PandoraBox& src, StreamId src_stream, PandoraBox& dst,
                        const CallPath& path = {});

  // Tears down one audio leg set up by SendAudio/SplitAudioTo: the source
  // stops sending on that VCI, the circuit closes, and the destination's
  // route is removed — without disturbing any other copies (principle 6).
  void HangUpAudio(PandoraBox& src, PandoraBox& dst, StreamId at_dst);

  // --- Churn (used by the fault driver and chaos tests) ---------------------

  PandoraBox* FindBox(const std::string& name);
  size_t box_count() const { return boxes_.size(); }
  PandoraBox& box(size_t i) { return *boxes_.at(i); }
  const std::vector<CallRecord>& calls() const { return calls_; }

  // Crashes `box` mid-run.  Every active call leg touching it is suspended:
  // the surviving endpoint's plumbing is closed host-side (its stream table
  // drops the dead peer's rows; other calls are untouched) and the circuit
  // is torn down.  Repository record/play sessions on the box are simply
  // lost, as a power cut would lose them.
  void CrashBox(PandoraBox& box);

  // Reboots a crashed box and re-establishes every suspended leg whose
  // other endpoint is alive, reusing the original stream ids and paths —
  // deterministic re-registration.  Legs whose peer is still down stay
  // suspended until that peer restarts.
  void RestartBox(PandoraBox& box);

  // Records a stream arriving at (or produced by) `box` into its repository.
  void RecordStream(PandoraBox& box, StreamId stream, bool audio = true);
  void FinishRecording(PandoraBox& box, StreamId stream);
  // Plays a recording on the same box's loudspeaker; returns playback stream.
  StreamId PlayRecording(PandoraBox& box, StreamId stored,
                         int blocks_per_segment = kDefaultBlocksPerSegment);
  // Plays a recorded video stream on the same box's display.
  StreamId PlayVideoRecording(PandoraBox& box, StreamId stored);

 private:
  // The section 1.1 set-up sequence for a new or re-established leg:
  // destination route, circuit, source route, then the producer (a video
  // leg's camera only when `start_camera`).  Unplumb is its reverse, for
  // either endpoint's half or both; the circuit always closes.
  void PlumbCall(const CallRecord& call, bool start_camera);
  void UnplumbCall(const CallRecord& call, bool src_side, bool dst_side);

  ShardSet shards_;
  std::vector<std::unique_ptr<ReportCollector>> reports_;  // one per shard
  AtmNetwork net_;
  // Placement policy for boxes that leave Options::shard at -1: a seeded
  // stream independent of the traffic RNGs, so adding instrumentation never
  // reshuffles the world.
  Rng placement_rng_;
  std::vector<std::unique_ptr<PandoraBox>> boxes_;
  std::unordered_map<std::string, size_t> box_index_;  // name → boxes_ index
  std::vector<CallRecord> calls_;
  StreamId next_stream_ = 1;
  bool started_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_CORE_SIMULATION_H_
