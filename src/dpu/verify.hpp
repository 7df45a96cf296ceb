#pragma once
// SENECA-Prove: static verification of compiled DPU programs (DESIGN.md §10).
//
// The compiler's chain of trust — quantizer → passes → XModel → DPU — is
// easy to miscompile silently: an off-by-one concat offset or a stale
// residency bit produces a program that still runs and returns plausible
// garbage. verify() re-derives, from nothing but the XModel and the arch
// description, every invariant the pass pipeline is supposed to have
// established, and reports violations as structured Findings:
//
//   1. buffer liveness & aliasing — SAVE/LOAD offset bounds (including the
//      offset-addressed concat regions), double-writes into overlapping
//      channel ranges, loads of never-written or dead DDR bytes;
//   2. dataflow soundness — every instruction's inputs dominated by their
//      producers under the emitted schedule, no use of freed residency
//      slots;
//   3. arithmetic range analysis — interval propagation of int8
//      activations through the conv/tconv accumulators to statically prove
//      int32 headroom per layer, cross-validated against the runtime
//      acc32_safe predicate (quant/kernels.cpp), plus requant-shift domain
//      checks;
//   4. cycle-model consistency — per-instruction cycles and the per-layer
//      latency must re-derive from the arch timing model.
//
// It runs as a mandatory post-pass on every compile() (make_verify_pass),
// as seneca_boardd's load gate over the .xmodel files it is given, and
// standalone over .xmodel files via tools/seneca_verify.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpu/xmodel.hpp"
#include "quant/qgraph.hpp"

namespace seneca::dpu {

enum class Severity : std::uint8_t { kNote = 0, kWarning = 1, kError = 2 };

const char* severity_name(Severity s);

/// One diagnostic. `layer` / `instr` locate it (-1 = model- / layer-level;
/// `instr` indexes into the layer's instruction stream); `check` is the
/// stable check id tests key on; `message` is human-readable.
struct Finding {
  Severity severity = Severity::kError;
  std::int32_t layer = -1;
  std::int32_t instr = -1;
  std::string check;
  std::string message;
};

struct VerifyOptions {
  // Cycle-model consistency is tolerance-based because Instr::cycles
  // round-trips the xmodel file as f32; in-memory programs are exact.
  bool check_cycles = true;
  double cycle_rel_tol = 1e-4;
};

/// The static int32-headroom proof for one conv/tconv layer, kept for
/// cross-validation against the runtime predicate and for reporting.
struct RangeProof {
  std::int32_t layer = -1;
  quant::Interval in;   // input activation interval
  quant::Interval acc;  // worst-channel accumulator interval
  int shift = 0;        // requant shift fp_in + fp_w - fp_out
  bool acc_fits_i32 = false;    // proof: accumulator stays inside int32
  bool shift32_proven = false;  // proof extends over the int32 requant path
  bool runtime_acc32 = false;   // coarse kernels::acc32_safe decision
};

/// Runs every check over a compiled model. Empty result = verified clean.
std::vector<Finding> verify(const XModel& model, const VerifyOptions& opts = {});

/// Interval-propagation pass alone (also run inside verify()); exposed so
/// tests and tools can inspect the per-layer proofs.
std::vector<RangeProof> range_analysis(const XModel& model);

bool has_errors(const std::vector<Finding>& findings);

/// Renders findings as one aligned line each, annotated with layer names
/// and instruction opcodes from the model, plus a severity tally header.
std::string format_findings(const XModel& model,
                            const std::vector<Finding>& findings);

/// The one error channel of the compiler: structural validation
/// (dpu::validate) and the verifier both throw this. Derives from
/// std::invalid_argument so pre-existing catch sites keep working, and
/// carries the structured findings for callers that want the instr/layer
/// context programmatically.
class CompileError : public std::invalid_argument {
 public:
  explicit CompileError(const std::string& msg,
                        std::vector<Finding> findings = {})
      : std::invalid_argument(msg), findings_(std::move(findings)) {}

  const std::vector<Finding>& findings() const noexcept { return findings_; }

 private:
  std::vector<Finding> findings_;
};

/// verify() + throw CompileError with the formatted report when any
/// finding is an error.
void verify_or_throw(const XModel& model, const VerifyOptions& opts = {});

}  // namespace seneca::dpu
