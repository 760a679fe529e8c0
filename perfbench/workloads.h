#pragma once
// The four benchmark workloads.  Each builds its inputs from args.seed,
// runs a warm-up job, then timed jobs for about args.seconds, verifies
// every output through `gate`, and fills `out` with every metric it
// measured.  A traced run (args.trace) alternates traced and untraced jobs
// and then replays each layer's public call on the workload's own fields.

#include <functional>
#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

using WorkloadFn = std::function<void(const Args&, Gate&, Tracer&, Metrics&)>;

/// Workload name -> runner: propagator, sequential, stream, service.
const std::map<std::string, WorkloadFn>& workloads();

}  // namespace perfbench
