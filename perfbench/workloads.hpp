#pragma once
// The three workloads (perfbench/README.md) and the per-layer passes they
// share. Every entry point fills a Report: end-to-end metrics when
// opt.trace is false, per-layer metrics when it is true.

#include <string>
#include <vector>

#include "common.hpp"
#include "serve/solve_service.hpp"

namespace perfbench {

using Batch = std::vector<fd::serve::InstanceSpec>;

/// box128 / box16: RK4 through solvers::TimeIntegrator on the 128^3
/// periodic cube (32^3 in smoke mode) cut into boxes of `boxSide`.
void runLevelWorkload(int domainSide, int boxSide, const Options& opt,
                      Report& rep);

/// serve-mix: closed-loop SolveService batches from the seeded generator.
void runServeMixWorkload(const Options& opt, Report& rep);

/// Per-layer metrics of grid, core (per-box schedule, level graph, step
/// graph, pool) and solvers, measured by timing calls into each layer's
/// public functions on one RK4 level over `layout`.
void measureLevelLayers(const fd::grid::DisjointBoxLayout& layout,
                        const Options& opt, Report& rep);

/// Per-layer metrics of serve and tuner: `cold` batches on a fresh
/// service and empty TuneDB, then `steady` batches on the same service,
/// then the steady batches again at maxConcurrent = 1. Every shape of
/// `steady` must occur in `cold`.
void measureServiceLayers(const std::vector<Batch>& cold,
                          const std::vector<Batch>& steady,
                          const Options& opt, Report& rep);

} // namespace perfbench
