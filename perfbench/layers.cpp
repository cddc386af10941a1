// Per-layer pass over one RK4 level: times the calls into each layer's
// public functions from outside the library (no instrumentation inside
// it). Layers, in the order a step uses them: grid (ghost exchange), core
// per-box schedule over the pencil kernels, core level graph, solvers
// (stage combines and the eager step), core step graph, core task pool.

#include <omp.h>

#include "core/exec_level.hpp"
#include "core/runner.hpp"
#include "core/stepgraph.hpp"
#include "core/taskpool.hpp"
#include "harness/stats.hpp"
#include "harness/timer.hpp"
#include "kernels/exemplar.hpp"
#include "solvers/integrator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = fd::core;
namespace grid = fd::grid;
namespace solvers = fd::solvers;

/// Counts that must repeat exactly between two independent constructions.
struct ExactCounts {
  std::size_t exchangeBytes = 0;
  std::size_t exchangeOps = 0;
  std::size_t workspacePeak = 0;
  std::size_t stepTasks = 0;
  std::size_t stepEdges = 0;
  std::size_t stepGraphs = 0;
  std::size_t stepExchangeOps = 0;

  bool operator==(const ExactCounts&) const = default;
};

using fd::harness::repeatTimed;

grid::LevelData zeroLevel(const grid::DisjointBoxLayout& layout) {
  return {layout, fd::kernels::kNumComp, fd::kernels::kNumGhost};
}

struct BoxTiming {
  double seconds = 0;
  std::size_t workspacePeak = 0;
};

/// One RHS's worth of per-box work: FluxDivRunner::runBox on box 0, on a
/// fresh runner. Returns the median seconds and the workspace peak.
BoxTiming timeRunBox(const grid::LevelData& u, grid::LevelData& out,
                     int threads, std::size_t reps) {
  core::FluxDivRunner runner(benchConfig(), threads);
  const grid::Box valid = u.validBox(0);
  BoxTiming t;
  t.seconds =
      repeatTimed([&] { runner.runBox(u[0], out[0], valid); }, reps).median;
  t.workspacePeak = runner.maxPeakWorkspaceBytes();
  return t;
}

} // namespace

void measureLevelLayers(const grid::DisjointBoxLayout& layout,
                        const Options& opt, Report& rep) {
  const int threads = opt.threads;
  const std::size_t reps = opt.smoke ? 2 : 5;
  const core::VariantConfig cfg = benchConfig();
  omp_set_num_threads(threads);
  ExactCounts counts[2];

  // grid, core per-box schedule, core level graph, solvers combines.
  double exchangeS = 0;
  double zeroS = 0;
  double levelS = 0;
  double combineS = 0;
  {
    grid::LevelData u = exemplarLevel(layout);
    grid::LevelData dudt = zeroLevel(layout);
    exchangeS = repeatTimed([&] { u.exchange(); }, reps).median;
    counts[0].exchangeBytes = u.exchangeBytes();
    counts[0].exchangeOps = u.copier().ops().size();
    rep.set("grid.exchange_s", exchangeS, "s");
    rep.set("grid.exchange_bytes",
            static_cast<double>(counts[0].exchangeBytes), "B");
    rep.set("grid.exchange_ops", static_cast<double>(counts[0].exchangeOps),
            "count");
    rep.set("grid.exchange_gbs",
            static_cast<double>(counts[0].exchangeBytes) / exchangeS / 1e9,
            "GB/s");

    const double box1 = timeRunBox(u, dudt, 1, reps).seconds;
    const BoxTiming box = timeRunBox(u, dudt, threads, reps);
    const double boxT = box.seconds;
    counts[0].workspacePeak = box.workspacePeak;
    counts[1].workspacePeak = timeRunBox(u, dudt, threads, 1).workspacePeak;
    rep.set("core.box_fluxdiv_1t_s", box1, "s");
    rep.set("core.box_fluxdiv_s", boxT, "s");
    rep.set("core.box_speedup", box1 / boxT, "ratio");
    rep.set("core.box_cells_per_s",
            static_cast<double>(u.validBox(0).numPts()) / boxT, "1/s");
    rep.set("core.workspace_peak_bytes",
            static_cast<double>(counts[0].workspacePeak), "B");

    core::FluxDivRunner runner(cfg, threads);
    levelS = repeatTimed([&] { runner.run(u, dudt); }, reps).median;
    core::LevelExecOptions lopts;
    lopts.policy = core::LevelPolicy::BoxParallel;
    core::LevelExecutor exec(cfg, threads, lopts);
    const double graphS =
        repeatTimed([&] { exec.run(u, dudt); }, reps).median;
    const double graphStepS =
        repeatTimed([&] { exec.runStep(u, dudt); }, reps).median;
    rep.set("core.level_fluxdiv_s", levelS, "s");
    rep.set("core.level_graph_s", graphS, "s");
    rep.set("core.level_graph_step_s", graphStepS, "s");

    // One RK4 step's stage combines, in advanceEager's order, with dudt
    // in the role of k and u in the role of the solution.
    grid::LevelData acc = zeroLevel(layout);
    grid::LevelData stage = zeroLevel(layout);
    const auto combines = [&] {
      solvers::copyValid(dudt, acc);
      solvers::copyValid(u, stage);
      solvers::addScaled(stage, dudt, 0.5 * kDt);
      solvers::addScaled(acc, dudt, 2.0);
      solvers::copyValid(u, stage);
      solvers::addScaled(stage, dudt, 0.5 * kDt);
      solvers::addScaled(acc, dudt, 2.0);
      solvers::copyValid(u, stage);
      solvers::addScaled(stage, dudt, kDt);
      solvers::addScaled(acc, dudt, 1.0);
      solvers::addScaled(u, acc, kDt / 6.0);
    };
    combineS = repeatTimed(combines, reps).median;
    rep.set("solvers.combine_s", combineS, "s");
    // The eager RHS zero-fills its output before each evaluation.
    const auto zeroFill = [&] {
      for (std::size_t b = 0; b < dudt.size(); ++b) {
        dudt[b].setVal(0.0);
      }
    };
    zeroS = repeatTimed(zeroFill, reps).median;
    rep.set("solvers.rhs_zero_s", zeroS, "s");
    counts[1].exchangeBytes = stage.exchangeBytes();
    counts[1].exchangeOps = stage.copier().ops().size();
  }

  solvers::FluxDivRhs rhs(cfg, threads);
  // solvers: the eager reference step. Its first step from the exemplar
  // state is also the reference for every step-graph check below.
  std::uint64_t ref = 0;
  double eagerS = 0;
  {
    solvers::TimeIntegrator eager(solvers::Scheme::RK4, layout);
    grid::LevelData first = exemplarLevel(layout);
    eager.advanceEager(first, kDt, rhs);
    ref = validDigest(first);
    grid::LevelData ue = exemplarLevel(layout);
    eager.advanceEager(ue, kDt, rhs);
    rep.check(validDigest(ue) == ref, "advanceEager repeats bit for bit");
    eagerS =
        repeatTimed([&] { eager.advanceEager(ue, kDt, rhs); }, reps, 0)
            .median;
  }
  rep.set("solvers.eager_step_s", eagerS, "s");
  // An eager RK4 step is four (exchange, zero-fill, flux divergence)
  // evaluations plus the stage combines.
  rep.set("solvers.parts_coverage",
          (4 * (exchangeS + zeroS + levelS) + combineS) / eagerS, "ratio");

  // step graph: the production default path of TimeIntegrator::advance.
  core::StepExecOptions poolOpts;
  double steadyS = 0;
  {
    grid::LevelData us = exemplarLevel(layout);
    solvers::TimeIntegrator integ(solvers::Scheme::RK4, layout);
    const fd::harness::Timer first;
    integ.advance(us, kDt, rhs);
    const double firstS = first.seconds();
    rep.check(validDigest(us) == ref, "traced first step vs advanceEager");
    steadyS =
        repeatTimed([&] { integ.advance(us, kDt, rhs); }, reps, 0).median;
    const core::StepGraphStats& st = *integ.stepStats();
    counts[0].stepTasks = st.taskCount;
    counts[0].stepEdges = st.edgeCount;
    counts[0].stepGraphs = st.graphCount;
    counts[0].stepExchangeOps = st.exchangeOps;
    rep.set("step.capture_s", firstS - steadyS, "s");
    rep.set("step.graphs", static_cast<double>(st.graphCount), "count");
    rep.set("step.tasks", static_cast<double>(st.taskCount), "count");
    rep.set("step.edges", static_cast<double>(st.edgeCount), "count");
    rep.set("step.exchange_ops", static_cast<double>(st.exchangeOps),
            "count");
    rep.set("step.graph_over_eager", steadyS / eagerS, "ratio");
    poolOpts = integ.stepExecutor(rhs)->options();
  }

  // pool: the same program and options on a pool the benchmark owns, so
  // its counters cover exactly the steady steps.
  {
    core::TaskPool pool(threads);
    poolOpts.sharedPool = &pool;
    poolOpts.domain = 0;
    core::StepGraphExecutor exec(cfg, threads, poolOpts);
    const core::StepProgram prog =
        solvers::buildStepProgram(solvers::Scheme::RK4, kDt, 1);
    const core::StepRhsSpec spec{rhs.invDx(), rhs.dissipation(),
                                 rhs.boundary()};
    grid::LevelData up = exemplarLevel(layout);
    exec.run(prog, up, spec);
    rep.check(validDigest(up) == ref,
              "shared-pool first step vs advanceEager");
    const core::StepGraphStats& st = exec.stats();
    counts[1].stepTasks = st.taskCount;
    counts[1].stepEdges = st.edgeCount;
    counts[1].stepGraphs = st.graphCount;
    counts[1].stepExchangeOps = st.exchangeOps;
    pool.resetStats();
    const fd::harness::Timer wall;
    for (std::size_t r = 0; r < reps; ++r) {
      exec.run(prog, up, spec);
    }
    const double wallS = wall.seconds();
    const core::TaskPoolStats ps = pool.stats();
    const double executed = static_cast<double>(ps.executed);
    const double steps = static_cast<double>(reps);
    rep.set("pool.utilization", ps.busySeconds / (threads * wallS), "ratio");
    rep.set("pool.task_us", 1e6 * ps.busySeconds / executed, "us");
    rep.set("pool.stolen_frac", static_cast<double>(ps.stolen) / executed,
            "ratio");
    rep.set("pool.idle_sleeps_per_step",
            static_cast<double>(ps.idleSleeps) / steps, "count");
    rep.set("pool.submissions_per_step",
            static_cast<double>(ps.submissions) / steps, "count");
    rep.set("trace.step_ratio", (wallS / steps) / steadyS, "ratio");
  }

  // The exact counts must repeat between two independent constructions.
  rep.check(counts[0] == counts[1],
            "exact counts differ between two constructions");
}

} // namespace perfbench
