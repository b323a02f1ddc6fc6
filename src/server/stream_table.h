// Per-stream routing and state tables on the server transputer (section 3.4).
//
// "Any process which handles a variety of streams in differing manners will
// use the stream number to index private tables that describe the
// operations to be performed on the segments of each stream (e.g. which
// processes to send them to, what outgoing VCI to use etc.) and hold the
// state of that stream (e.g. number of dropped segments...).  The tables
// are updated without disturbing the flows of data when commands are
// received" — principle 6.
#ifndef PANDORA_SRC_SERVER_STREAM_TABLE_H_
#define PANDORA_SRC_SERVER_STREAM_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/segment/constants.h"
#include "src/server/degrade.h"

namespace pandora {

// Identifies one switch output (an output device handler's buffer).
using DestinationId = int;
inline constexpr DestinationId kInvalidDestination = -1;

struct StreamRoute {
  StreamAttrs attrs;
  // VCIs used when the destination is the network: one per far-end copy
  // (a tannoy stream fans out to several circuits).
  std::vector<Vci> out_vcis;
  std::vector<DestinationId> destinations;
  uint64_t segments = 0;
  uint64_t drops = 0;  // segments discarded at the switch for this stream
};

class StreamTable {
 public:
  // Creates or fetches a stream's entry; stamps open order on creation.
  StreamRoute& Open(StreamId stream, bool incoming, bool audio) {
    auto it = table_.find(stream);
    if (it == table_.end()) {
      StreamRoute route;
      route.attrs.stream = stream;
      route.attrs.incoming = incoming;
      route.attrs.audio = audio;
      route.attrs.open_order = next_open_order_++;
      it = table_.emplace(stream, std::move(route)).first;
      order_.insert(std::lower_bound(order_.begin(), order_.end(), stream), stream);
      ++version_;
    }
    return it->second;
  }

  StreamRoute* Find(StreamId stream) {
    auto it = table_.find(stream);
    return it == table_.end() ? nullptr : &it->second;
  }
  const StreamRoute* Find(StreamId stream) const {
    auto it = table_.find(stream);
    return it == table_.end() ? nullptr : &it->second;
  }

  void AddDestination(StreamId stream, DestinationId destination) {
    StreamRoute* route = Find(stream);
    if (route == nullptr) {
      return;
    }
    for (DestinationId d : route->destinations) {
      if (d == destination) {
        return;
      }
    }
    route->destinations.push_back(destination);
    ++version_;
  }

  void RemoveDestination(StreamId stream, DestinationId destination) {
    StreamRoute* route = Find(stream);
    if (route == nullptr) {
      return;
    }
    if (std::erase(route->destinations, destination) > 0) {
      ++version_;
    }
  }

  // Re-parents a stream in ONE table mutation: `from` is replaced by `to`
  // in place, so there is no intermediate state where the stream is routed
  // to neither (the overlay's repair hook — a churn re-parent must never
  // open a delivery gap of its own).  If `to` is already routed, `from` is
  // simply removed.  Returns false (no mutation) when `from` is not routed.
  bool MoveDestination(StreamId stream, DestinationId from, DestinationId to) {
    StreamRoute* route = Find(stream);
    if (route == nullptr) {
      return false;
    }
    auto it = std::find(route->destinations.begin(), route->destinations.end(), from);
    if (it == route->destinations.end()) {
      return false;
    }
    if (std::find(route->destinations.begin(), route->destinations.end(), to) !=
        route->destinations.end()) {
      route->destinations.erase(it);
    } else {
      *it = to;
    }
    ++version_;
    return true;
  }

  void RemoveVci(StreamId stream, Vci vci) {
    StreamRoute* route = Find(stream);
    if (route == nullptr) {
      return;
    }
    std::erase(route->out_vcis, vci);
  }

  void Close(StreamId stream) {
    if (table_.erase(stream) > 0) {
      order_.erase(std::lower_bound(order_.begin(), order_.end(), stream));
      ++version_;
    }
  }

  // Streams currently routed towards `destination` (for the degrader), in
  // stream-id order.
  std::vector<StreamAttrs> ActiveTowards(DestinationId destination) const {
    std::vector<StreamAttrs> active;
    for (StreamId stream : order_) {
      const StreamRoute& route = table_.at(stream);
      for (DestinationId d : route.destinations) {
        if (d == destination) {
          active.push_back(route.attrs);
          break;
        }
      }
    }
    return active;
  }

  size_t size() const { return table_.size(); }

  // Bumped on every mutation that can change some ActiveTowards() result
  // (stream open/close, destination add/remove) — NOT on per-segment
  // bookkeeping or VCI edits.  Starts at 1 so 0 works as a "never filled"
  // sentinel for caches keyed on it.
  uint64_t version() const { return version_; }

 private:
  // Routes by stream id: Find runs on every switched segment, so a hash
  // index; `order_` keeps the ids sorted for ActiveTowards, which must not
  // depend on hash order.  Nodes are stable, so Open's reference survives
  // later opens.
  std::unordered_map<StreamId, StreamRoute> table_;
  std::vector<StreamId> order_;
  uint64_t next_open_order_ = 1;
  uint64_t version_ = 1;
};

}  // namespace pandora

#endif  // PANDORA_SRC_SERVER_STREAM_TABLE_H_
