#include "src/server/netio.h"

#include <utility>

#include "src/buffer/small_vec.h"
#include "src/runtime/check.h"
#include "src/segment/wire.h"
#include "src/trace/trace.h"

namespace pandora {

void EncodeForWire(SegmentRef ref, WireBuffer* wire, uint64_t* deep_copies) {
  EncodeSegmentInto(*ref, StreamField::kOmitted, &wire->bytes);
  ref.Reset();
  if (deep_copies != nullptr) {
    ++*deep_copies;
  }
}

NetworkOutput::NetworkOutput(Scheduler* sched, NetworkOutputOptions options, StreamTable* table,
                             AtmPort* port, ReportSink* report_sink, uint64_t* deep_copies)
    : sched_(sched),
      options_(std::move(options)),
      table_(table),
      port_(port),
      reporter_(sched, report_sink, options_.name),
      input_(sched, options_.name + ".in"),
      ready_(sched, options_.name + ".ready"),
      audio_buffer_(sched,
                    {.name = options_.name + ".audio",
                     .capacity = options_.audio_buffer_capacity,
                     .use_ready_channel = true},
                    report_sink),
      video_buffer_(sched,
                    {.name = options_.name + ".video",
                     .capacity = options_.video_buffer_capacity,
                     .use_ready_channel = true},
                    report_sink),
      audio_sender_(&audio_buffer_.input(), &audio_buffer_.ready()),
      video_sender_(&video_buffer_.input(), &video_buffer_.ready()),
      deep_copies_(deep_copies) {
  input_.set_passive_receiver(this);
}

void NetworkOutput::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  audio_buffer_.Start();
  video_buffer_.Start();
  sched_->Spawn(SenderProc(), options_.name + ".send", Priority::kHigh);
}

bool NetworkOutput::Accept(SegmentRef& ref) {
  const bool audio = ref->is_audio();
  const StreamId stream = ref->stream;
  ReadySender& sender = audio ? audio_sender_ : video_sender_;
  if (!sender.TrySend(std::move(ref))) {
    // The interface is saturated: excess video (usually) is discarded
    // here, keeping its queueing delay bounded while audio rides the
    // bigger buffer (principle 2).
    sender.CountDrop();
    reporter_.Report(audio ? "netout.audio_drop" : "netout.video_drop", ReportSeverity::kWarning,
                     "interface saturated; segment discarded", static_cast<int64_t>(stream));
  }
  // The splitter itself never fills: answer the switch immediately.
  ready_.Post(true);
  return true;
}

Process NetworkOutput::SenderProc() {
  for (;;) {
    Alt alt(sched_);
    if (options_.audio_priority) {
      alt.OnReceive(audio_buffer_.output());  // audio strictly first (P2)
      alt.OnReceive(video_buffer_.output());
    } else {
      // Ablation: the guard order is reversed, so queued video always wins
      // the interface — the behaviour the split + priority exist to avoid.
      alt.OnReceive(video_buffer_.output());
      alt.OnReceive(audio_buffer_.output());
    }
    int raw = co_await alt.Select();
    int chosen = options_.audio_priority ? raw : 1 - raw;
    // Plain if/else rather than `cond ? co_await a : co_await b`: GCC 12
    // generates incorrect temporary cleanups for co_await inside the
    // conditional operator, double-releasing the move-only result.
    SegmentRef ref;
    if (chosen == 0) {
      ref = co_await audio_buffer_.output().Receive();
    } else {
      ref = co_await video_buffer_.output().Receive();
    }
    // Wire-pool starvation applies back pressure here, before the box's
    // segment buffer is given up.  The route is read once the wire buffer
    // is in hand; an unrouted stream's VCI is its stream id.
    WireRef wire = co_await port_->wire_pool().Allocate();
    // The VCIs are copied out of the route before the first send: a send
    // can wait on the interface while a command rewrites or closes it.
    SmallVec<Vci, 16> targets;
    const StreamRoute* route = table_ != nullptr ? table_->Find(ref->stream) : nullptr;
    if (route != nullptr && !route->out_vcis.empty()) {
      for (Vci vci : route->out_vcis) {
        targets.push_back(vci);
      }
    } else {
      targets.push_back(ref->stream);
    }
    sent_ += targets.size();
    EncodeForWire(std::move(ref), wire.get(), deep_copies_);
    // Every destination but the last gets a Dup() of the encoded bytes.
    // Each NetTx is built in a named local before the co_await: GCC 12
    // miscompiles move-only aggregate temporaries materialized inside
    // co_await argument expressions (the moved-from ref was destroyed as if
    // still live, double-releasing the buffer).
    for (size_t i = 0; i < targets.size(); ++i) {
      NetTx tx;
      tx.vci = targets[i];
      tx.wire = i + 1 < targets.size() ? wire.Dup() : std::move(wire);
      co_await port_->tx().Send(std::move(tx));
    }
    if (deep_copies_ != nullptr) {
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_copies_, options_.name + ".deep_copies",
                            static_cast<int64_t>(*deep_copies_));
    }
  }
}

Process NetworkInput::Run() {
  for (;;) {
    NetRx in = co_await port_->rx().Receive();
    // The ONE decode on the whole path (DESIGN.md §9), done BEFORE taking a
    // buffer so malformed wire images cannot consume this box's pool.  It
    // lands in a scratch segment this process owns; see the swap below.
    const char* error = nullptr;
    const bool ok =
        DecodeSegmentInto(in.wire->bytes, StreamField::kOmitted, in.vci, &scratch_, &error);
    in.wire.Reset();  // encoded bytes go back to the source port's pool
    if (!ok) {
      // Bit corruption or truncation in flight: the self-describing header
      // let us reject it here.  Count, report, drop — the sequence gap is
      // absorbed downstream by the clawback buffer.
      ++decode_failures_;
      reporter_.Report("netin.decode_failure", ReportSeverity::kWarning, error,
                       static_cast<int64_t>(in.vci));
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_decode_fail_,
                            options_.name + ".decode_failures",
                            static_cast<int64_t>(decode_failures_));
      continue;
    }
    // Copy into this box's buffer memory ("copy once into memory"); pool
    // starvation applies back pressure all the way into the network
    // delivery path.  Only a starved pool parks us.
    SegmentRef ref = co_await pool_->Allocate();
    // Swap, not assign: the slot's recycled vectors become the next
    // scratch, so payload capacity circulates instead of being freed.
    std::swap(*ref, scratch_);
    ++received_;
    if (deep_copies_ != nullptr) {
      ++*deep_copies_;
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_copies_, options_.name + ".deep_copies",
                            static_cast<int64_t>(*deep_copies_));
    }
    co_await to_switch_->Send(std::move(ref));
  }
}

}  // namespace pandora
