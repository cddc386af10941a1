// box128 / box16: the paper's equal-work comparison (Fig. 9). RK4 on the
// same 128^3 periodic cube, once as a single box and once as 512 boxes of
// 16^3, through the production step path of solvers::TimeIntegrator (no
// fuse or policy override).

#include <omp.h>

#include <iostream>

#include "harness/stats.hpp"
#include "harness/timer.hpp"
#include "solvers/integrator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace solvers = fd::solvers;

/// Share of the measurement budget given to the one-thread baseline: its
/// steps take longer, so it gets more time for a comparable count.
constexpr double kSerialShare = 0.6;

/// Fresh instances per run at `threads`: each has its set-up timed and
/// takes steady steps. setup_s is their median.
constexpr int kSetups = 7;

/// Fresh one-thread instances per run, interleaved with the first ones
/// at `threads`.
constexpr int kSerialRounds = 3;

/// One solver instance as a user builds it: level, RHS, integrator.
struct LevelRun {
  LevelRun(const fd::grid::DisjointBoxLayout& layout, int threads)
      : u(exemplarLevel(layout)), rhs(benchConfig(), threads),
        integ(solvers::Scheme::RK4, layout) {}

  void step() { integ.advance(u, kDt, rhs); }

  fd::grid::LevelData u;
  solvers::FluxDivRhs rhs;
  solvers::TimeIntegrator integ;
};

/// Steady steps (the first step is already done) until `budget` seconds
/// have passed and at least `minSteps` were taken; one sample per step,
/// appended to `samples`.
void steadySteps(LevelRun& run, double budget, int minSteps,
                 std::vector<Sample>& samples) {
  const fd::harness::Timer clock;
  for (int n = 0; n < minSteps || clock.seconds() < budget; ++n) {
    const SampleTimer t;
    run.step();
    samples.push_back(t.stop());
  }
}

void runLevelEndToEnd(int domainSide, int boxSide, const Options& opt,
                      Report& rep) {
  const fd::grid::DisjointBoxLayout layout =
      cubeLayout(domainSide, boxSide);
  const int threads = opt.threads;
  // A fresh allocation lands on other physical pages, which moves a
  // step's time by several percent on a virtual machine, so each phase
  // pools the steps of several instances, alternating the two phases.
  const int setups = opt.smoke ? 1 : kSetups;
  const int serialRounds = opt.smoke ? 1 : kSerialRounds;
  const double sharedBudget = opt.seconds * (1 - kSerialShare) / setups;
  const double serialBudget = opt.seconds * kSerialShare / serialRounds;
  omp_set_num_threads(threads);

  // Reference: one eager RK4 step from the exemplar state, kept as a
  // digest; the memory the eager step held is not the workload's.
  std::uint64_t ref = 0;
  {
    fd::grid::LevelData u = exemplarLevel(layout);
    solvers::FluxDivRhs rhs(benchConfig(), threads);
    solvers::TimeIntegrator eager(solvers::Scheme::RK4, layout);
    eager.advanceEager(u, kDt, rhs);
    ref = validDigest(u);
  }
  if (!resetPeakRss()) {
    std::cout << "peak_rss_mb: high-water mark not resettable here; it "
                 "includes the eager reference step\n";
  }

  std::vector<Sample> setupTimes;
  std::vector<Sample> sharedSteps;
  std::vector<Sample> serialSteps;
  for (int r = 0; r < setups; ++r) {
    omp_set_num_threads(threads);
    {
      // Set-up: layout, allocation, init and integrator construction
      // through the first (capturing) step.
      const SampleTimer t;
      LevelRun run(cubeLayout(domainSide, boxSide), threads);
      run.step();
      setupTimes.push_back(t.stop());
      rep.check(validDigest(run.u) == ref, "first step vs advanceEager");
      steadySteps(run, sharedBudget, 1, sharedSteps);
    }
    if (r < serialRounds) {
      omp_set_num_threads(1);
      LevelRun run(layout, 1);
      run.step();
      rep.check(validDigest(run.u) == ref,
                "1-thread first step vs advanceEager");
      steadySteps(run, serialBudget, 2, serialSteps);
    }
  }
  omp_set_num_threads(threads);

  const std::vector<double> shared = leastStolenSeconds(sharedSteps);
  const std::vector<double> serial = leastStolenSeconds(serialSteps);
  double wall = 0;
  for (const double s : shared) {
    wall += s;
  }
  std::cout << "level: " << layout.size() << " boxes, " << setups
            << " instances at " << threads << " threads, " << serialRounds
            << " at 1 thread; least-stolen " << shared.size()
            << " and " << serial.size() << " steady steps\n";
  rep.set("step_s", fd::harness::percentile(shared, 50), "s");
  rep.set("step_1t_s", fd::harness::percentile(serial, 50), "s");
  rep.set("setup_s",
          fd::harness::percentile(leastStolenSeconds(setupTimes), 50), "s");
  rep.set("peak_rss_mb", peakRssMiB(), "MiB");
  rep.set("solves_per_s", static_cast<double>(shared.size()) / wall, "1/s");
  rep.set("solve_p50_ms", 1e3 * fd::harness::percentile(shared, 50), "ms");
  rep.set("solve_p90_ms", 1e3 * fd::harness::percentile(shared, 90), "ms");
}

} // namespace

void runLevelWorkload(int domainSide, int boxSide, const Options& opt,
                      Report& rep) {
  if (!opt.trace) {
    runLevelEndToEnd(domainSide, boxSide, opt, rep);
    return;
  }
  const fd::grid::DisjointBoxLayout layout =
      cubeLayout(domainSide, boxSide);
  measureLevelLayers(layout, opt, rep);
  // The service layers on this workload's boxes: a batch of two one-step
  // RK4 solves of the same box count and size, in the service's periodic
  // row arrangement.
  fd::serve::InstanceSpec spec;
  spec.scheme = solvers::Scheme::RK4;
  spec.boxSize = boxSide;
  spec.nBoxes = static_cast<int>(layout.size());
  spec.steps = 1;
  Batch batch;
  for (const char* name : {"level-a", "level-b"}) {
    spec.name = name;
    batch.push_back(spec);
  }
  measureServiceLayers({batch}, {batch, batch}, opt, rep);
}

} // namespace perfbench
