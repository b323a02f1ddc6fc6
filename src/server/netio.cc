#include "src/server/netio.h"

#include <utility>

#include "src/runtime/check.h"
#include "src/segment/wire.h"
#include "src/trace/trace.h"

namespace pandora {

Task<void> SendEncodedSegment(AtmPort* port, SegmentRef ref, const std::vector<Vci>& vcis,
                              uint64_t* deep_copies) {
  PANDORA_CHECK(!vcis.empty(), "wire send with no destination VCI");
  // The ONE serialization on the transmit side.  Wire-pool starvation
  // applies back pressure here, before the box's segment buffer is given
  // up; the encode reuses the recycled buffer's heap capacity.
  WireRef wire = co_await port->wire_pool().Allocate();
  EncodeSegmentInto(*ref, StreamField::kOmitted, &wire->bytes);
  ref.Reset();  // the box buffer recycles as soon as serialization completes
  if (deep_copies != nullptr) {
    ++*deep_copies;
  }
  // Note: every NetTx is built in a named local (or a heap-stable SmallVec
  // slot, in SendEncodedBatch below) before the co_await; GCC 12
  // miscompiles move-only aggregate temporaries materialized inside
  // co_await argument expressions (the moved-from ref was destroyed as
  // if still live, double-releasing the buffer).
  for (size_t i = 0; i + 1 < vcis.size(); ++i) {
    NetTx tx;
    tx.vci = vcis[i];
    tx.wire = wire.Dup();
    co_await port->tx().Send(std::move(tx));
  }
  NetTx tx;
  tx.vci = vcis.back();
  tx.wire = std::move(wire);
  co_await port->tx().Send(std::move(tx));
}

Task<void> SendEncodedBatch(AtmPort* port, SmallVec<SegmentRef, kIoBatchInline>& segments,
                            StreamTable* table, uint64_t* deep_copies, uint64_t* fanout_sent) {
  PANDORA_CHECK(!segments.empty(), "wire send with an empty batch");
  // Allocation burst: take every free wire buffer synchronously; only a
  // starved pool parks us on the allocator (and then only for the buffers
  // the burst could not cover).  Wire-pool back pressure thus still lands
  // here, before any box segment buffer is given up.
  SmallVec<WireRef, kIoBatchInline> wires;
  for (size_t i = 0; i < segments.size(); ++i) {
    wires.push_back(co_await port->wire_pool().Allocate());
  }
  // Encode pass: the ONE serialization per segment, back to back over the
  // burst; each box buffer recycles the moment its bytes are on the image.
  SmallVec<StreamId, kIoBatchInline> streams;
  for (size_t i = 0; i < segments.size(); ++i) {
    streams.push_back(segments[i]->stream);
    EncodeSegmentInto(*segments[i], StreamField::kOmitted, &wires[i]->bytes);
    segments[i].Reset();
    if (deep_copies != nullptr) {
      ++*deep_copies;
    }
  }
  segments.clear();
  // Ship pass: one NetTx per (segment, VCI), fanout sharing each encoded
  // image by Dup().  The suspension-safety note in SendEncodedSegment
  // applies here too: each NetTx lives in the SmallVec (heap-stable slots
  // within one co_await) or a named local, never in a co_await temporary.
  SmallVec<NetTx, kIoBatchInline> txs;
  for (size_t i = 0; i < streams.size(); ++i) {
    const StreamRoute* route = table != nullptr ? table->Find(streams[i]) : nullptr;
    if (route != nullptr && !route->out_vcis.empty()) {
      for (size_t v = 0; v + 1 < route->out_vcis.size(); ++v) {
        txs.push_back(NetTx{route->out_vcis[v], wires[i].Dup()});
      }
      txs.push_back(NetTx{route->out_vcis.back(), std::move(wires[i])});
      if (fanout_sent != nullptr) {
        *fanout_sent += route->out_vcis.size();
      }
    } else {
      txs.push_back(NetTx{streams[i], std::move(wires[i])});
      if (fanout_sent != nullptr) {
        ++*fanout_sent;
      }
    }
  }
  wires.clear();
  while (!txs.empty()) {
    // A parked tx receiver takes what it can without a suspension; the rest
    // go one at a time through the rendezvous (the interface gate meters
    // them out in simulated time anyway).
    if (port->tx().TrySendBatch(txs) > 0) {
      continue;
    }
    NetTx tx = std::move(txs[0]);
    txs.pop_front_n(1);
    co_await port->tx().Send(std::move(tx));
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
  SmallVec<SegmentRef, kIoBatchInline> batch;
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
    // conditional operator, double-releasing the move-only result.  The
    // batched drain below inherits the same rule: every segment rides a
    // heap-stable SmallVec slot, never a co_await temporary.
    DecouplingBuffer* source;
    SegmentRef ref;
    if (chosen == 0) {
      ref = co_await audio_buffer_.output().Receive();
      source = &audio_buffer_;
    } else {
      ref = co_await video_buffer_.output().Receive();
      source = &video_buffer_;
    }
    batch.push_back(std::move(ref));
    if (options_.batch.max_hold > 0) {
      // Hold the batch open for a bounded slice of simulated time so more
      // of the same class accumulates; the boundary is a pure function of
      // simulated time (deterministic under replay and sharding).
      co_await sched_->WaitFor(options_.batch.max_hold);
    }
    if (options_.batch.max_batch > 1) {
      // FIFO drain of the same class: each take from output() puts the
      // next queued segment in hand, so the batch walks the queue.  One
      // wire-pool allocation burst then serves the whole cycle
      // (SendEncodedBatch).
      source->output().TryReceiveBatch(batch, options_.batch.max_batch - 1);
    }
    co_await SendEncodedBatch(port_, batch, table_, deep_copies_, &sent_);
    batch.clear();
    if (deep_copies_ != nullptr) {
      PANDORA_TRACE_COUNTER(sched_->trace(), trace_copies_, options_.name + ".deep_copies",
                            static_cast<int64_t>(*deep_copies_));
    }
  }
}

Process NetworkInput::Run() {
  SmallVec<NetRx, kIoBatchInline> batch;
  for (;;) {
    // Block for the first wire image, then drain whatever else is already
    // parked on the rx channel (in-flight deliveries pile up there) into
    // the same wakeup, bounded by the batch budget (DESIGN.md §15).
    batch.push_back(co_await port_->rx().Receive());
    if (options_.batch.max_hold > 0) {
      co_await sched_->WaitFor(options_.batch.max_hold);
    }
    if (options_.batch.max_batch > 1) {
      port_->rx().TryReceiveBatch(batch, options_.batch.max_batch - 1);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      NetRx in = std::move(batch[i]);
      // The ONE decode on the whole path (DESIGN.md §9), done BEFORE taking
      // a buffer so malformed wire images cannot consume this box's pool.
      // It lands in a scratch segment this process owns; see the swap below.
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
    batch.clear();
  }
}

}  // namespace pandora
