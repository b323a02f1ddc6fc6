#include "src/runtime/alt.h"

#include <algorithm>

namespace pandora {

int Alt::ScanReady() const {
  for (size_t i = 0; i < guards_.size(); ++i) {
    const Guard& guard = guards_[i];
    switch (guard.kind) {
      case Guard::kChannel:
        if (guard.channel->InputReady()) {
          return static_cast<int>(i);
        }
        break;
      case Guard::kTimeout:
        if (sched_->now() >= guard.deadline) {
          return static_cast<int>(i);
        }
        break;
    }
  }
  return -1;
}

void Alt::Park(ProcessCtx* ctx) {
  ctx->parked_alt = this;
  waiting_ctx_ = ctx;
  notified_ = false;
  Time earliest = kNever;
  for (const Guard& guard : guards_) {
    if (guard.kind == Guard::kChannel) {
      guard.channel->RegisterAltWaiter(this);
    } else if (guard.kind == Guard::kTimeout) {
      earliest = std::min(earliest, guard.deadline);
    }
  }
  if (earliest != kNever) {
    timeout_timer_ = sched_->AddTimer(earliest, [alt = this] { alt->NotifyFromChannel(); });
  }
}

void Alt::Withdraw() {
  for (const Guard& guard : guards_) {
    if (guard.kind == Guard::kChannel) {
      guard.channel->UnregisterAltWaiter(this);
    }
  }
  timeout_timer_.Cancel();
}

bool Alt::Unpark() {
  ProcessCtx* ctx = waiting_ctx_;
  Withdraw();
  chosen_ = ScanReady();
  if (chosen_ >= 0) {
    ctx->parked_alt = nullptr;
    waiting_ctx_ = nullptr;
    return true;
  }
  // Lost race: another receiver took the data first.  Re-park exactly as a
  // fresh Select would (unregister, cancel, register, arm): channel waiter
  // order and timer sequence numbers are part of the dispatch-order golden.
  Park(ctx);
  return false;
}

}  // namespace pandora
