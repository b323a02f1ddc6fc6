#include "src/fault/driver.h"

#include <algorithm>

#include "src/runtime/check.h"
#include "src/trace/trace.h"

namespace pandora {

FaultDriver::FaultDriver(Simulation* sim, FaultPlan plan) : sim_(sim), plan_(std::move(plan)) {
  plan_.Normalize();
}

void FaultDriver::Start() {
  PANDORA_CHECK(!started_);
  started_ = true;
  // Nothing is due yet, so this only arms the first step — or declares an
  // empty plan quiescent immediately.
  ArmNextGlobal();
}

void FaultDriver::ArmNextGlobal() {
  Time next = kNever;
  if (next_event_ < plan_.events.size()) {
    next = plan_.events[next_event_].at;
  }
  if (!restores_.empty()) {
    next = std::min(next, restores_.front().at);
  }
  if (next == kNever) {
    quiescent_ = true;
    quiescent_at_ = sim_->now();
    TraceFault("quiescent", 0, static_cast<int64_t>(applied_));
    return;
  }
  FaultDriver* self = this;
  sim_->shard_set().PostGlobal(next, TimerCallback([self] { self->StepGlobal(); }));
}

void FaultDriver::StepGlobal() {
  // Restores fire before onsets at the same instant, so a plan may end one
  // episode and begin another on the same microsecond and see the healthy
  // state in between.
  const Time now = sim_->now();
  while (!restores_.empty() && restores_.front().at <= now) {
    ApplyRestore(PopRestore());
  }
  while (next_event_ < plan_.events.size() && plan_.events[next_event_].at <= now) {
    Apply(plan_.events[next_event_]);
    ++next_event_;
  }
  ArmNextGlobal();
}

void FaultDriver::BeginEpisode(const FaultEvent& event, EpisodeState& episode) {
  if (event.duration <= 0) {
    episode.permanent = true;
    return;
  }
  ++episode.active;
  Restore restore;
  restore.at = event.at + event.duration;
  restore.kind = event.kind;
  restore.target = event.target;
  PushRestore(std::move(restore));
}

void FaultDriver::PushRestore(Restore restore) {
  restore.order = next_restore_order_++;
  restores_.push_back(std::move(restore));
  std::push_heap(restores_.begin(), restores_.end(), [](const Restore& a, const Restore& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  });
}

FaultDriver::Restore FaultDriver::PopRestore() {
  std::pop_heap(restores_.begin(), restores_.end(), [](const Restore& a, const Restore& b) {
    return a.at != b.at ? a.at > b.at : a.order > b.order;
  });
  Restore restore = std::move(restores_.back());
  restores_.pop_back();
  return restore;
}

void FaultDriver::TraceFault(const std::string& what, int target, int64_t value) {
  // Cold path (a handful of events per run): the dynamic-name instant keeps
  // one trace track per fault kind without pre-interned sites.
  PANDORA_TRACE_INSTANT_DYN(sim_->scheduler().trace(), "fault." + what,
                            static_cast<int64_t>(target), value);
}

void FaultDriver::Apply(const FaultEvent& event) {
  AtmNetwork& net = sim_->network();
  const std::string kind_name = FormatFaultKind(event.kind);

  if (TargetOf(event.kind) == FaultTarget::kReceiver) {
    // Receiver-targeted kinds (churn) belong to the overlay's churn driver;
    // a Simulation has no receiver registry to apply them to.  A mixed plan
    // replayed here still applies its call/box events at the same instants.
    ++skipped_;
    TraceFault(kind_name + ".skip", event.target, 0);
    return;
  }

  if (TargetOf(event.kind) == FaultTarget::kCall) {
    if (event.target < 0 || static_cast<size_t>(event.target) >= sim_->calls().size()) {
      ++skipped_;
      TraceFault(kind_name + ".skip", event.target, 0);
      return;
    }
    const Simulation::CallRecord& call = sim_->calls()[static_cast<size_t>(event.target)];
    if (!call.active || call.suspended || call.src->crashed()) {
      // The circuit this fault would impair is gone (hung up, or torn down
      // by an earlier crash in the same plan).
      ++skipped_;
      TraceFault(kind_name + ".skip", event.target, 0);
      return;
    }
    AtmPort* port = call.src->port();
    const Vci vci = call.at_dst;
    switch (event.kind) {
      case FaultKind::kCircuitDown: {
        if (!net.SetCircuitUp(port, vci, false)) {
          ++skipped_;
          TraceFault(kind_name + ".skip", event.target, 0);
          return;
        }
        BeginEpisode(event, episodes_[{event.kind, event.target}]);
        break;
      }
      case FaultKind::kBandwidthCollapse:
      case FaultKind::kBurstLoss:
      case FaultKind::kJitterStorm:
      case FaultKind::kWireCorrupt: {
        // Null when the circuit is closed — or bridged, where the direct
        // quality is never consulted and the storm would be a silent no-op.
        const HopQuality* current = net.CircuitQuality(port, vci);
        if (current == nullptr) {
          ++skipped_;
          TraceFault(kind_name + ".skip", event.target, 0);
          return;
        }
        EpisodeState& episode = episodes_[{event.kind, event.target}];
        if (episode.active == 0) {
          // First episode of this kind on this target: this (and only
          // this) snapshot is what the last overlapping restore puts back.
          episode.base = *current;
        }
        HopQuality impaired = *current;
        if (event.kind == FaultKind::kBandwidthCollapse) {
          impaired.bits_per_second = std::max<int64_t>(1, static_cast<int64_t>(event.value));
        } else if (event.kind == FaultKind::kBurstLoss) {
          impaired.loss_rate = std::clamp(event.value, 0.0, 1.0);
        } else if (event.kind == FaultKind::kJitterStorm) {
          impaired.jitter_max = std::max<Duration>(0, static_cast<Duration>(event.value));
        } else {
          impaired.corrupt_rate = std::clamp(event.value, 0.0, 1.0);
        }
        net.SetCircuitQuality(port, vci, impaired);
        BeginEpisode(event, episode);
        break;
      }
      default:
        break;
    }
    ++applied_;
    TraceFault(kind_name, event.target, static_cast<int64_t>(event.value));
    return;
  }

  // Box-targeted faults.
  if (event.target < 0 || static_cast<size_t>(event.target) >= sim_->box_count()) {
    ++skipped_;
    TraceFault(kind_name + ".skip", event.target, 0);
    return;
  }
  PandoraBox& box = sim_->box(static_cast<size_t>(event.target));
  switch (event.kind) {
    case FaultKind::kBoxCrash: {
      if (box.crashed()) {
        ++skipped_;
        TraceFault(kind_name + ".skip", event.target, 0);
        return;
      }
      sim_->CrashBox(box);
      BeginEpisode(event, episodes_[{event.kind, event.target}]);
      break;
    }
    case FaultKind::kClockStep: {
      EpisodeState& episode = episodes_[{event.kind, event.target}];
      if (episode.active == 0) {
        episode.base_value = box.audio_clock_drift();
      }
      box.SetAudioClockDrift(event.value);
      BeginEpisode(event, episode);
      break;
    }
    case FaultKind::kPoolPressure: {
      if (box.crashed()) {
        ++skipped_;
        TraceFault(kind_name + ".skip", event.target, 0);
        return;
      }
      box.pool().InjectPressure(static_cast<size_t>(std::max(0.0, event.value)));
      BeginEpisode(event, episodes_[{event.kind, event.target}]);
      break;
    }
    default:
      break;
  }
  ++applied_;
  TraceFault(kind_name, event.target, static_cast<int64_t>(event.value));
}

void FaultDriver::ApplyRestore(const Restore& restore) {
  AtmNetwork& net = sim_->network();
  const std::string kind_name = FormatFaultKind(restore.kind);
  EpisodeState& episode = episodes_[{restore.kind, restore.target}];
  if (episode.active > 0) {
    --episode.active;
  }
  ++restored_;
  if (episode.active > 0 || episode.permanent) {
    // A sibling episode of the same kind still covers this target (or a
    // duration-0 event made the impairment permanent): the state stays
    // impaired until the LAST restore puts the pre-episode snapshot back.
    TraceFault(kind_name + ".restore", restore.target, static_cast<int64_t>(episode.active));
    return;
  }
  switch (restore.kind) {
    case FaultKind::kCircuitDown:
    case FaultKind::kBandwidthCollapse:
    case FaultKind::kBurstLoss:
    case FaultKind::kJitterStorm:
    case FaultKind::kWireCorrupt: {
      const Simulation::CallRecord& call = sim_->calls()[static_cast<size_t>(restore.target)];
      if (!call.active || call.suspended || call.src->crashed()) {
        break;  // a crash tore the circuit down; restart re-plumbs it healthy
      }
      if (restore.kind == FaultKind::kCircuitDown) {
        net.SetCircuitUp(call.src->port(), call.at_dst, true);
        break;
      }
      const HopQuality* current = net.CircuitQuality(call.src->port(), call.at_dst);
      if (current == nullptr) {
        break;
      }
      // Put back only this kind's own field: episodes of the OTHER quality
      // kinds may still be holding theirs on the same circuit.
      HopQuality restored = *current;
      if (restore.kind == FaultKind::kBandwidthCollapse) {
        restored.bits_per_second = episode.base.bits_per_second;
      } else if (restore.kind == FaultKind::kBurstLoss) {
        restored.loss_rate = episode.base.loss_rate;
      } else if (restore.kind == FaultKind::kJitterStorm) {
        restored.jitter_max = episode.base.jitter_max;
      } else {
        restored.corrupt_rate = episode.base.corrupt_rate;
      }
      net.SetCircuitQuality(call.src->port(), call.at_dst, restored);
      break;
    }
    case FaultKind::kBoxCrash: {
      PandoraBox& box = sim_->box(static_cast<size_t>(restore.target));
      if (box.crashed()) {
        sim_->RestartBox(box);
      }
      break;
    }
    case FaultKind::kClockStep: {
      sim_->box(static_cast<size_t>(restore.target)).SetAudioClockDrift(episode.base_value);
      break;
    }
    case FaultKind::kPoolPressure: {
      PandoraBox& box = sim_->box(static_cast<size_t>(restore.target));
      if (!box.crashed()) {
        // After a crash+restart the rebuilt pool holds no pressure and this
        // release is a harmless no-op.
        box.pool().ReleasePressure();
      }
      break;
    }
    case FaultKind::kChurn:
      // Never reached: Apply skips receiver-targeted events before any
      // episode (and hence any restore) can be opened.
      break;
  }
  TraceFault(kind_name + ".restore", restore.target, 0);
}

}  // namespace pandora
