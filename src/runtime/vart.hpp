#pragma once
// VART-analog runtime (§III-E): runs batches of frames on the (simulated)
// DPU cores. Host worker threads execute the functional core model so
// results are bit-exact with the reference; the timing story of a
// deployment is asked of soc_sim (the DES), keeping functional correctness
// and temporal modelling decoupled.

#include <cstddef>
#include <functional>
#include <vector>

#include "dpu/core_sim.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace seneca::runtime {

class VartRunner {
 public:
  /// `num_workers` mirrors the paper's thread count (1/2/4); values below 1
  /// count as 1. The xmodel must outlive the runner.
  VartRunner(const dpu::XModel& model, int num_workers);

  VartRunner(const VartRunner&) = delete;
  VartRunner& operator=(const VartRunner&) = delete;

  /// Runs every input through the core and returns the INT8 outputs in
  /// input order, blocking until the whole batch is done. The frames spread
  /// over the runner's worker threads; a 1-worker runner, or a batch of one,
  /// runs on the caller. Concurrent calls share the workers. If any frame
  /// fails (e.g. an input whose shape is not the model's), the whole batch
  /// throws that frame's exception in the caller's thread once every frame
  /// has run.
  std::vector<tensor::TensorI8> run_batch(
      const std::vector<tensor::TensorI8>& inputs);

  /// Test/fault-injection hook: invoked at the top of run_batch, in the
  /// caller's thread, with the batch size; a throwing hook fails the batch
  /// like a runtime fault (device error, OOM) before any frame runs.
  void set_run_fault_hook(std::function<void(std::size_t)> hook);

  int num_workers() const { return num_workers_; }

 private:
  const dpu::DpuCoreSim core_;
  const int num_workers_;
  util::Mutex hook_mutex_;
  std::function<void(std::size_t)> run_fault_hook_ GUARDED_BY(hook_mutex_);
  util::ThreadPool pool_;  // last: joins its workers before core_ goes
};

}  // namespace seneca::runtime
