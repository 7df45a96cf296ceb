#include "serve/cluster/health.hpp"

#include <cmath>

#include "serve/cluster/board.hpp"

namespace seneca::serve::cluster {

BoardHealth assess(const Board& board, const HealthPolicy& policy) {
  BoardHealth h;
  h.fault = board.fault_injected();
  const double capacity = static_cast<double>(board.queue_capacity());
  if (capacity > 0.0) {
    const double threshold = policy.queue_saturation * capacity;
    h.queue_saturated =
        static_cast<double>(board.queue_depth()) >= threshold;
  }
  return h;
}

}  // namespace seneca::serve::cluster
