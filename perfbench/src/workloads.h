// The benchmark's workloads. Each builds its inputs from the run seed,
// measures for the configured time, checks every answer with the oracle
// and fills a WorkloadResult. `trace` is non-null only in the traced run.
#pragma once

#include "common.h"
#include "obs/trace.h"

namespace perfbench {

using satfr::obs::TraceWriter;

WorkloadResult RunTable2Prove(const RunConfig& config, TraceWriter* trace);
WorkloadResult RunServiceShared(const RunConfig& config, TraceWriter* trace);
WorkloadResult RunServiceCold(const RunConfig& config, TraceWriter* trace);

/// Checks the benchmark's own helpers (relabeling, oracle, percentiles);
/// returns the number of failed checks.
int RunSelfTest();

}  // namespace perfbench
