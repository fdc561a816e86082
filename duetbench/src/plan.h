// Epoch replanning on a durable controller: the paper's §4 engine
// (assignment, migration) driven through persist::PersistentController at
// the `small` scale (5x10x5 fabric, 1000 VIPs, Fig 20 trace parameters).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "duet/config.h"
#include "persist/op_log.h"
#include "topo/fattree.h"
#include "trace.h"
#include "workload/demand.h"
#include "workload/vip.h"

namespace duetbench {

struct PlanInputs {
  duet::FatTree fabric;
  duet::DuetConfig config;
  duet::Trace trace;
  std::uint64_t seed = 1;
  std::vector<duet::persist::Op> install;  // deploy + one add-vip per trace VIP
  std::vector<std::vector<duet::VipDemand>> demands;  // per epoch
};

// The canonical Fig 20 trace (the trace generator's own default seed), not
// --seed: the planner's outputs are deterministic quality figures, and a
// regression in them is only visible on a fixed instance. Across seeds they
// would measure the trace, not the planner (README.md has the numbers).
PlanInputs make_plan_inputs();

struct PlanPass {
  std::vector<double> sticky_epoch_s; // journaled apply of each sticky kRunEpoch (wall)
  std::vector<double> sticky_epoch_cpu_s;  // the same, CPU time of the whole process
  std::vector<double> hmux_frac;      // per epoch
  std::vector<double> shuffled_frac;  // per epoch after the first
  std::vector<double> smuxes;         // per epoch
  double restart_s = -1.0;            // reopen after the last epoch (< 0: not reopened)
  double recover_ms = 0.0;
  std::uint64_t replayed = 0;
  std::string error;                  // non-empty: the pass failed a check
};

// One pass over every epoch in a fresh directory under `root`; reopens the
// store at the end when `reopen` is set and checks the recovered state.
PlanPass run_plan_pass(const PlanInputs& in, const std::string& root,
                       duet::persist::FsyncPolicy fsync, bool reopen, Tracer& tracer);

}  // namespace duetbench
