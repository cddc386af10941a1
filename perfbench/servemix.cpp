// serve-mix: a closed loop of SolveService::run batches drawn from the
// seeded generator (mix.hpp), plus the serve/tuner per-layer pass that the
// level workloads reuse on their own shapes.

#include <omp.h>

#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>

#include "harness/stats.hpp"
#include "harness/timer.hpp"
#include "mix.hpp"
#include "solvers/integrator.hpp"
#include "tuner/tunedb.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using fd::serve::InstanceSpec;
using fd::serve::ServiceOptions;
using fd::serve::ServiceReport;
using fd::serve::SolveService;

/// Eager reference solutions per solve shape, as digests:
/// TimeIntegrator::advanceEager from the exemplar state, once per distinct
/// shape of `batches`.
class References {
public:
  References(const std::vector<Batch>& batches, int threads);
  [[nodiscard]] std::uint64_t of(const InstanceSpec& spec) const;

private:
  std::map<std::string, std::uint64_t> refs_;
};

References::References(const std::vector<Batch>& batches, int threads) {
  for (const Batch& batch : batches) {
    for (const InstanceSpec& spec : batch) {
      const std::string key = shapeKey(spec);
      if (refs_.count(key) != 0) {
        continue;
      }
      const fd::grid::DisjointBoxLayout layout = fd::serve::specLayout(spec);
      fd::grid::LevelData u = exemplarLevel(layout);
      fd::solvers::FluxDivRhs rhs(benchConfig(), threads);
      fd::solvers::TimeIntegrator integ(spec.scheme, layout);
      for (int s = 0; s < spec.steps; ++s) {
        integ.advanceEager(u, spec.dt, rhs);
      }
      refs_.emplace(key, validDigest(u));
    }
  }
}

std::uint64_t References::of(const InstanceSpec& spec) const {
  const auto it = refs_.find(shapeKey(spec));
  if (it == refs_.end()) {
    throw std::logic_error("no eager reference for " + specLine(spec));
  }
  return it->second;
}

/// Solve `batch` on `svc` from fresh exemplar states (allocated and
/// initialized before the service's timed run) and check every solution
/// bit for bit against `refs`.
ServiceReport runBatch(SolveService& svc, const Batch& batch,
                       const References& refs, Report& rep) {
  std::vector<fd::grid::LevelData> states;
  states.reserve(batch.size());
  for (const InstanceSpec& spec : batch) {
    states.push_back(exemplarLevel(fd::serve::specLayout(spec)));
  }
  std::vector<fd::grid::LevelData*> ptrs;
  for (fd::grid::LevelData& s : states) {
    ptrs.push_back(&s);
  }
  ServiceReport report = svc.run(batch, ptrs);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    rep.check(validDigest(states[i]) == refs.of(batch[i]),
              "service solve " + specLine(batch[i]));
  }
  return report;
}

int totalSteps(const Batch& batch) {
  int steps = 0;
  for (const InstanceSpec& spec : batch) {
    steps += spec.steps;
  }
  return steps;
}

ServiceOptions serviceOptions(int threads, fd::tuner::TuneDB& db,
                              int maxConcurrent = 0) {
  ServiceOptions opts;
  opts.threads = threads;
  opts.tunedb = &db;
  opts.maxConcurrent = maxConcurrent;
  return opts;
}

/// Service counters summed over batches.
struct ServiceTotals {
  double busy = 0; ///< worker-seconds in task bodies
  double wall = 0;
  double executed = 0;
  double stolen = 0;
  double crossings = 0;
  double solves = 0;
  double hits = 0;
  double retunes = 0;
  std::vector<double> latencies;

  void add(const ServiceReport& r, int threads) {
    busy += r.poolUtilization * threads * r.wallSeconds;
    wall += r.wallSeconds;
    executed += static_cast<double>(r.tasksExecuted);
    stolen += static_cast<double>(r.tasksStolen);
    crossings += static_cast<double>(r.domainCrossings);
    solves += static_cast<double>(r.solves);
    hits += static_cast<double>(r.graphCacheHits);
    retunes += static_cast<double>(r.retunes);
    for (const fd::serve::InstanceReport& inst : r.instances) {
      latencies.push_back(inst.latencySeconds);
    }
  }
};

/// One batch pair: its service wall time (with the steal share of the
/// whole interval), RK steps, and per-solve latencies.
struct PairRun {
  Sample wall;
  int steps = 0;
  std::vector<double> latencies;
};

/// One batch pair on `svc`. Every pair holds the same 48 shapes, so
/// pairs are equal work.
PairRun runPair(SolveService& svc, const std::vector<Batch>& pair,
                const References& refs, Report& rep) {
  PairRun run;
  double wall = 0;
  const SampleTimer interval;
  for (const Batch& batch : pair) {
    const ServiceReport r = runBatch(svc, batch, refs, rep);
    wall += r.wallSeconds;
    run.steps += totalSteps(batch);
    for (const fd::serve::InstanceReport& inst : r.instances) {
      run.latencies.push_back(inst.latencySeconds);
    }
  }
  run.wall = interval.stop();
  run.wall.seconds = wall;
  return run;
}

/// The least-stolen pairs of `pairs` (see leastStolen).
std::vector<PairRun> selectPairs(const std::vector<PairRun>& pairs) {
  std::vector<Sample> walls;
  for (const PairRun& p : pairs) {
    walls.push_back(p.wall);
  }
  std::vector<PairRun> out;
  for (const std::size_t i : leastStolen(walls)) {
    out.push_back(pairs[i]);
  }
  return out;
}

double medianStepSeconds(const std::vector<PairRun>& pairs) {
  std::vector<double> perStep;
  for (const PairRun& p : pairs) {
    perStep.push_back(p.wall.seconds / p.steps);
  }
  return fd::harness::percentile(perStep, 50);
}

/// Steady pairs from pair 1 on, on `svc`, until `budget` seconds have
/// passed and at least `minPairs` were run. Appends the pairs' batches to
/// `used`.
std::vector<PairRun> steadyPairs(SolveService& svc, const Options& opt,
                                 double budget, int minPairs,
                                 const References& refs, Report& rep,
                                 std::vector<Batch>& used) {
  std::vector<PairRun> pairs;
  const fd::harness::Timer clock;
  for (int p = 1; p <= minPairs || clock.seconds() < budget; ++p) {
    const std::vector<Batch> pair = mixPair(opt.seed, p);
    pairs.push_back(runPair(svc, pair, refs, rep));
    used.insert(used.end(), pair.begin(), pair.end());
  }
  return selectPairs(pairs);
}

void runServeMixEndToEnd(const Options& opt, Report& rep) {
  const int threads = opt.threads;
  // At least half of five steady pairs are kept, and three pairs hold 144
  // solves, so at least ten lie beyond p90.
  const int minPairs = opt.smoke ? 1 : 5;
  const int setupReps = opt.smoke ? 1 : 7;
  // Share of the budget given to the one-thread baseline, whose pairs
  // take about three times as long.
  constexpr double kSerialShare = 0.65;
  std::vector<Batch> used = mixPair(opt.seed, 0);
  omp_set_num_threads(threads);
  // Every pair holds all 48 shapes, so the cold pair's references cover
  // the whole run.
  const References refs(used, threads);
  if (!resetPeakRss()) {
    std::cout << "peak_rss_mb: high-water mark not resettable here; it "
                 "includes the eager references\n";
  }

  // Set-up: service construction plus the cold pair from an empty TuneDB,
  // on fresh services; the last one stays for the steady phase.
  std::vector<Sample> setups;
  std::unique_ptr<fd::tuner::TuneDB> db;
  std::unique_ptr<SolveService> svc;
  for (int r = 0; r < setupReps; ++r) {
    svc.reset();
    db = std::make_unique<fd::tuner::TuneDB>();
    const SampleTimer interval;
    const fd::harness::Timer construct;
    svc = std::make_unique<SolveService>(serviceOptions(threads, *db));
    double setup = construct.seconds();
    for (const Batch& batch : mixPair(opt.seed, 0)) {
      setup += runBatch(*svc, batch, refs, rep).wallSeconds;
    }
    setups.push_back(interval.stop());
    setups.back().seconds = setup;
  }
  const std::vector<PairRun> shared =
      steadyPairs(*svc, opt, opt.seconds * (1 - kSerialShare), minPairs,
                  refs, rep, used);
  // The workload's own memory: the measured service at its peak.
  const double peakMiB = peakRssMiB();
  svc.reset();

  // The plain serial baseline: the same traffic on a one-thread service,
  // after the shared one is gone.
  omp_set_num_threads(1);
  fd::tuner::TuneDB db1;
  SolveService serial(serviceOptions(1, db1));
  for (const Batch& batch : mixPair(opt.seed, 0)) {
    runBatch(serial, batch, refs, rep);
  }
  std::vector<Batch> serialUsed;
  const std::vector<PairRun> one = steadyPairs(
      serial, opt, opt.seconds * kSerialShare, minPairs, refs, rep,
      serialUsed);
  omp_set_num_threads(threads);

  double wall = 0;
  std::size_t solves = 0;
  std::vector<double> latencies;
  for (const PairRun& p : shared) {
    wall += p.wall.seconds;
    solves += p.latencies.size();
    latencies.insert(latencies.end(), p.latencies.begin(),
                     p.latencies.end());
  }
  std::cout << "serve-mix: seed " << opt.seed << ", " << used.size()
            << " batches at " << threads << " threads (" << shared.size()
            << " least-stolen steady pairs kept), spec digest 0x" << std::hex
            << specDigest(used) << std::dec << '\n';
  rep.set("step_s", medianStepSeconds(shared), "s");
  rep.set("step_1t_s", medianStepSeconds(one), "s");
  rep.set("setup_s",
          fd::harness::percentile(leastStolenSeconds(setups), 50), "s");
  rep.set("peak_rss_mb", peakMiB, "MiB");
  rep.set("solves_per_s", static_cast<double>(solves) / wall, "1/s");
  rep.set("solve_p50_ms", 1e3 * fd::harness::percentile(latencies, 50),
          "ms");
  rep.set("solve_p90_ms", 1e3 * fd::harness::percentile(latencies, 90),
          "ms");
}

} // namespace

void measureServiceLayers(const std::vector<Batch>& cold,
                          const std::vector<Batch>& steady,
                          const Options& opt, Report& rep) {
  const int threads = opt.threads;
  omp_set_num_threads(threads);
  const References refs(cold, threads);
  fd::tuner::TuneDB db;
  double retunesCold = 0;
  ServiceTotals shared;
  {
    SolveService svc(serviceOptions(threads, db));
    for (const Batch& batch : cold) {
      retunesCold +=
          static_cast<double>(runBatch(svc, batch, refs, rep).retunes);
    }
    for (const Batch& batch : steady) {
      shared.add(runBatch(svc, batch, refs, rep), threads);
    }
  }
  // The same batches one solve at a time, on a service whose executor
  // cache the cold batches warm first.
  ServiceTotals serial;
  {
    SolveService svc(serviceOptions(threads, db, 1));
    for (const Batch& batch : cold) {
      runBatch(svc, batch, refs, rep);
    }
    for (const Batch& batch : steady) {
      serial.add(runBatch(svc, batch, refs, rep), threads);
    }
  }
  rep.set("serve.pool_utilization", shared.busy / (threads * shared.wall),
          "ratio");
  rep.set("serve.stolen_frac", shared.stolen / shared.executed, "ratio");
  rep.set("serve.domain_crossings_per_solve",
          shared.crossings / shared.solves, "count");
  rep.set("serve.cache_hit_frac", shared.hits / shared.solves, "ratio");
  rep.set("serve.serial_solves_per_s", serial.solves / serial.wall, "1/s");
  rep.set("serve.contention_ratio",
          fd::harness::percentile(shared.latencies, 50) /
              fd::harness::percentile(serial.latencies, 50),
          "ratio");
  rep.set("tuner.retunes_cold", retunesCold, "count");
  rep.set("tuner.retunes_warm", shared.retunes, "count");
}

void runServeMixWorkload(const Options& opt, Report& rep) {
  if (!opt.trace) {
    runServeMixEndToEnd(opt, rep);
    return;
  }
  // Level layers on the mix's largest shape (present in every pair).
  InstanceSpec largest;
  largest.scheme = fd::solvers::Scheme::RK4;
  largest.boxSize = 24;
  largest.nBoxes = 8;
  measureLevelLayers(fd::serve::specLayout(largest), opt, rep);

  const std::vector<Batch> cold = mixPair(opt.seed, 0);
  std::vector<Batch> steady;
  for (int p = 1; p <= (opt.smoke ? 1 : 2); ++p) {
    for (Batch& batch : mixPair(opt.seed, p)) {
      steady.push_back(std::move(batch));
    }
  }
  measureServiceLayers(cold, steady, opt, rep);
}

} // namespace perfbench
