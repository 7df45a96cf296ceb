#include "runtime/vart.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace seneca::runtime {

namespace {

// One arena per executing thread: its per-layer activation buffers recycle
// across every frame the thread runs, so steady-state inference allocates
// only the returned output tensor. A pool worker serves one runner; a
// caller that runs frames inline keeps one arena for every runner it calls.
tensor::TensorArena& thread_arena() {
  thread_local tensor::TensorArena arena;
  return arena;
}

}  // namespace

VartRunner::VartRunner(const dpu::XModel& model, int num_workers)
    : core_(&model),
      num_workers_(std::max(num_workers, 1)),
      pool_(static_cast<std::size_t>(num_workers_)) {}

void VartRunner::set_run_fault_hook(std::function<void(std::size_t)> hook) {
  util::LockGuard lock(hook_mutex_);
  run_fault_hook_ = std::move(hook);
}

std::vector<tensor::TensorI8> VartRunner::run_batch(
    const std::vector<tensor::TensorI8>& inputs) {
  std::function<void(std::size_t)> hook;
  {
    util::LockGuard lock(hook_mutex_);
    hook = run_fault_hook_;
  }
  if (hook) hook(inputs.size());

  std::vector<tensor::TensorI8> outputs(inputs.size());
  // A throw escaping a pool worker would terminate the process; each frame
  // parks its exception instead, and the first one fails the batch here.
  std::vector<std::exception_ptr> errors(inputs.size());
  pool_.parallel_for(0, inputs.size(), [&](std::size_t i) {
    try {
      outputs[i] =
          core_.run(inputs[i], /*bw_sharers=*/1, &thread_arena()).output;
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return outputs;
}

}  // namespace seneca::runtime
