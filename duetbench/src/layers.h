// Per-layer probes for the traced run. Each one calls a layer's public
// functions on the workload's own inputs and records a span around every
// call, so the layer's self time comes out of the span tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.h"
#include "duet/config.h"
#include "ops.h"
#include "plan.h"
#include "trace.h"

namespace duetbench {

inline constexpr std::size_t kProbeBatch = 64;

// The data path one batch at a time, as MuxServer::pump runs it: parse,
// flow hash, fast-tier lookup, Smux::process_batch, encapsulate_on_wire,
// then BatchIo::send_batch to a loopback sink and BatchIo::recv_batch from
// it. Spans: one "probe.batch" unit per batch of kProbeBatch datagrams with
// one child per stage. Returns the number of batches, 0 on a socket
// failure.
std::size_t probe_datapath(const TrafficSpec& spec, const std::vector<ServedVip>& served,
                           duet::SmuxEngine engine, std::size_t batches, Tracer& tracer);

// MuxServer::apply_vip_update on a running server until the first echo
// through the new VIP; median ms over `samples` updates (< 0 on failure).
double probe_update_lag_ms(duet::SmuxEngine engine, std::size_t samples, std::uint64_t seed,
                           Tracer& tracer);

// OpLog::append under fsync-every, in a fresh directory under `root`;
// median us (< 0 on failure).
double probe_append_us(const std::vector<OpStep>& steps, const std::string& root,
                       std::size_t samples, Tracer& tracer);

// The DuetController mutators on an unjournaled twin of duetd's controller,
// fed the op stream; median us per op kind (NaN for a kind the stream lacks).
std::vector<double> probe_controller_apply(const std::vector<ServedVip>& served,
                                           duet::SmuxEngine engine, bool pin_half,
                                           const std::vector<OpStep>& steps,
                                           std::uint64_t seed, Tracer& tracer);

struct PlanProbe {
  double scratch_s = 0.0;    // VipAssigner::assign, median over epochs
  double sticky_s = 0.0;     // VipAssigner::assign_sticky, median
  double run_epoch_s = 0.0;  // DuetController::run_epoch (sticky), median
  double audit_ms = 0.0;     // InvariantAuditor::audit + audit_journal
  bool audit_clean = false;
  std::size_t epoch_op_bytes = 0;  // encode_op of one kRunEpoch op
};
PlanProbe probe_plan(const PlanInputs& in, std::size_t epochs, Tracer& tracer);

}  // namespace duetbench
