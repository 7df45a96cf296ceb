#pragma once
// Board health assessment for the routing tier. A board is unhealthy when
// either of two signals fires:
//   - fault: operator/test fault injection (Board::inject_fault), or — for
//     socket-attached boards — a dead connection / stale telemetry,
//   - admission-queue saturation (depth at or past a configurable fraction
//     of capacity — routing there would only be shed at admission). The
//     admission queue is a board's only queue, so this is its only
//     backpressure signal.
// The router routes around unhealthy boards, so a sick board drains to its
// peers; its already-queued work still completes locally. When every board
// is unhealthy the router still picks one (least loaded) so futures always
// resolve — degraded service beats a hung client.

#include <cstddef>

namespace seneca::serve::cluster {

class Board;

struct HealthPolicy {
  /// Queue depth at or above `queue_saturation * capacity` marks the board
  /// saturated. 1.0 = only a full queue; lower values drain earlier.
  double queue_saturation = 1.0;
};

struct BoardHealth {
  bool fault = false;
  bool queue_saturated = false;

  bool healthy() const { return !fault && !queue_saturated; }
};

BoardHealth assess(const Board& board, const HealthPolicy& policy);

}  // namespace seneca::serve::cluster
