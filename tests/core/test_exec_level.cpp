// LevelExecutor acceptance tests: every policy (sequential / parallel /
// hybrid) must produce BIT-IDENTICAL divF to the box-sequential ordering
// across all four schedule families and both storage pitches, the
// overlapped runStep() must equal the exchange(); run() pair, firstTouch()
// must deliver the Init::Zero contract for deferred allocations, and the
// FLUXDIV_LEVEL_POLICY env override must route FluxDivRunner::run through
// the executor. Under FLUXDIV_SHADOW_CHECK a seeded two-worker race on the
// task pool must trip the shadow detector.

#include "core/exec_level.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/graphcheck.hpp"
#include "core/runner.hpp"
#include "core/taskpool.hpp"
#include "core/variant.hpp"
#include "grid/box.hpp"
#include "grid/leveldata.hpp"
#include "kernels/exemplar.hpp"
#include "kernels/init.hpp"

namespace fluxdiv::core {
namespace {

using grid::Box;
using grid::DisjointBoxLayout;
using grid::Init;
using grid::LevelData;
using grid::Pitch;
using grid::ProblemDomain;
using grid::Real;

/// The four families at a representative configuration each; WithinBox
/// granularity so the parallel policies change the decomposition, not
/// just the OpenMP loop they replace.
std::vector<VariantConfig> representativeFamilies() {
  return {
      makeBaseline(ParallelGranularity::WithinBox),
      makeShiftFuse(ParallelGranularity::WithinBox),
      makeBlockedWF(8, ParallelGranularity::WithinBox,
                    ComponentLoop::Inside),
      makeBlockedWF(8, ParallelGranularity::WithinBox,
                    ComponentLoop::Outside),
      makeOverlapped(IntraTileSchedule::ShiftFuse, 8,
                     ParallelGranularity::WithinBox),
  };
}

/// 8-box level (2x2x2 boxes of side 16) — enough boxes that box-parallel
/// and hybrid graphs exercise stealing, small enough to stay fast.
LevelData makeExchangedLevel(Pitch pitch) {
  const ProblemDomain dom(Box::cube(32));
  const DisjointBoxLayout dbl(dom, 16);
  LevelData phi0(dbl, kernels::kNumComp, kernels::kNumGhost, pitch);
  kernels::initializeExemplar(phi0); // fills valid cells + exchange()
  return phi0;
}

/// Evaluate divF over `phi0` under `policy` into a fresh phi1.
LevelData evalPolicy(const VariantConfig& cfg, const LevelData& phi0,
                     LevelPolicy policy, int nThreads, Pitch pitch) {
  LevelData phi1(phi0.layout(), kernels::kNumComp, 0, pitch);
  LevelExecutor exec(cfg, nThreads,
                     LevelExecOptions{policy, /*overlapExchange=*/false});
  exec.run(phi0, phi1);
  return phi1;
}

TEST(LevelExecutor, AllPoliciesBitIdenticalAcrossFamiliesAndPitches) {
  for (const Pitch pitch : {Pitch::Padded, Pitch::Dense}) {
    const LevelData phi0 = makeExchangedLevel(pitch);
    for (const VariantConfig& cfg : representativeFamilies()) {
      const LevelData expected =
          evalPolicy(cfg, phi0, LevelPolicy::BoxSequential, 1, pitch);
      for (const int nThreads : {1, 3}) {
        for (const LevelPolicy policy :
             {LevelPolicy::BoxParallel, LevelPolicy::Hybrid}) {
          const LevelData actual =
              evalPolicy(cfg, phi0, policy, nThreads, pitch);
          EXPECT_EQ(LevelData::maxAbsDiffValid(expected, actual), 0.0)
              << cfg.name() << " / " << levelPolicyName(policy)
              << " / threads=" << nThreads << " / "
              << (pitch == Pitch::Padded ? "padded" : "dense");
        }
      }
    }
  }
}

TEST(LevelExecutor, SequentialPolicyMatchesRunner) {
  const LevelData phi0 = makeExchangedLevel(Pitch::Padded);
  for (const VariantConfig& cfg : representativeFamilies()) {
    LevelData viaRunner(phi0.layout(), kernels::kNumComp, 0);
    FluxDivRunner runner(cfg, 3);
    runner.runLevel(phi0, viaRunner);
    const LevelData viaExec =
        evalPolicy(cfg, phi0, LevelPolicy::BoxSequential, 3, Pitch::Padded);
    EXPECT_EQ(LevelData::maxAbsDiffValid(viaRunner, viaExec), 0.0)
        << cfg.name();
  }
}

TEST(LevelExecutor, RunStepOverlapEqualsExchangeThenRun) {
  const ProblemDomain dom(Box::cube(32));
  const DisjointBoxLayout dbl(dom, 16);
  for (const VariantConfig& cfg : representativeFamilies()) {
    for (const LevelPolicy policy :
         {LevelPolicy::BoxParallel, LevelPolicy::Hybrid}) {
      // Reference: barrier exchange, then evaluate.
      LevelData ref0(dbl, kernels::kNumComp, kernels::kNumGhost);
      kernels::initializeExemplar(ref0);
      LevelData expected(dbl, kernels::kNumComp, 0);
      {
        LevelExecutor exec(cfg, 3,
                           LevelExecOptions{policy, /*overlapExchange=*/false});
        exec.run(ref0, expected);
      }

      // Overlapped: start from stale (zero) ghosts, let runStep fill them
      // as tasks interleaved with interior compute.
      LevelData phi0(dbl, kernels::kNumComp, kernels::kNumGhost);
      kernels::initializeExemplar(phi0);
      for (std::size_t b = 0; b < phi0.size(); ++b) {
        // Clobber the exchanged ghosts so a skipped/short-circuited
        // exchange would be visible in divF.
        for (int c = 0; c < kernels::kNumComp; ++c) {
          grid::FArrayBox& fab = phi0[b];
          const Box valid = phi0.validBox(b);
          Real* p = fab.dataPtr(c);
          grid::forEachCell(fab.box(), [&](int i, int j, int k) {
            if (!valid.contains(grid::IntVect(i, j, k))) {
              p[fab.offset(i, j, k)] = -1.0e30;
            }
          });
        }
      }
      LevelData actual(dbl, kernels::kNumComp, 0);
      LevelExecutor exec(cfg, 3,
                         LevelExecOptions{policy, /*overlapExchange=*/true});
      exec.runStep(phi0, actual);
      EXPECT_EQ(LevelData::maxAbsDiffValid(expected, actual), 0.0)
          << cfg.name() << " / " << levelPolicyName(policy);
      // And the exchange itself must have run: ghosts now match ref0's.
      for (std::size_t b = 0; b < phi0.size(); ++b) {
        EXPECT_EQ(grid::FArrayBox::maxAbsDiff(phi0[b], ref0[b],
                                              phi0[b].box()),
                  0.0)
            << cfg.name() << " ghosts of box " << b;
      }
    }
  }
}

TEST(LevelExecutor, SplitBoxRunAndRunStepBitIdentical) {
  // One 48^3 box on 3 and 4 workers: fewer boxes than workers, so run()
  // cuts the box and runStep() its interior into z-slab tasks. Both must
  // reproduce the sequential whole-box evaluation exactly.
  const ProblemDomain dom(Box::cube(48));
  const DisjointBoxLayout dbl(dom, 48);
  LevelData ref0(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(ref0);
  for (const VariantConfig& cfg : representativeFamilies()) {
    const LevelData expected = evalPolicy(
        cfg, ref0, LevelPolicy::BoxSequential, 1, Pitch::Padded);
    for (const int nThreads : {3, 4}) {
      for (const LevelPolicy policy :
           {LevelPolicy::BoxParallel, LevelPolicy::Hybrid}) {
        const std::string what = cfg.name() + " / " +
                                 levelPolicyName(policy) +
                                 " / threads=" + std::to_string(nThreads);
        const LevelData viaRun =
            evalPolicy(cfg, ref0, policy, nThreads, Pitch::Padded);
        EXPECT_EQ(LevelData::maxAbsDiffValid(expected, viaRun), 0.0)
            << what << " run";

        LevelData phi0(dbl, kernels::kNumComp, kernels::kNumGhost);
        kernels::initializeExemplar(phi0);
        for (int c = 0; c < kernels::kNumComp; ++c) {
          // Stale ghosts: a slab that skipped its exchange edge would
          // read these.
          grid::FArrayBox& fab = phi0[0];
          Real* p = fab.dataPtr(c);
          grid::forEachCell(fab.box(), [&](int i, int j, int k) {
            if (!phi0.validBox(0).contains(grid::IntVect(i, j, k))) {
              p[fab.offset(i, j, k)] = -1.0e30;
            }
          });
        }
        LevelData viaRunStep(dbl, kernels::kNumComp, 0);
        LevelExecutor exec(cfg, nThreads,
                           LevelExecOptions{policy, /*overlapExchange=*/true});
        exec.runStep(phi0, viaRunStep);
        EXPECT_EQ(LevelData::maxAbsDiffValid(expected, viaRunStep), 0.0)
            << what << " runStep";
      }
    }
  }
  // The box-parallel graphs really are split: 110,592 cells hold three
  // minimum-grain slabs (run), the 44^3 interior two (runStep, plus six
  // fringe slabs and the exchange ops).
  const VariantConfig cfg = makeShiftFuse(ParallelGranularity::WithinBox);
  LevelData phi1(dbl, kernels::kNumComp, 0);
  LevelExecutor exec(cfg, 4, LevelExecOptions{LevelPolicy::BoxParallel});
  for (const bool withExchange : {false, true}) {
    const analysis::TaskGraphModel m =
        exec.lowerGraph(ref0, phi1, withExchange);
    EXPECT_EQ(m.tasks.size(),
              withExchange ? ref0.copier().ops().size() + 2 + 6 : 3U)
        << m.name;
    EXPECT_TRUE(analysis::checkTaskGraph(m).ok()) << m.name;
  }
}

TEST(LevelExecutor, RunStepSequentialPolicyStillExchanges) {
  const ProblemDomain dom(Box::cube(32));
  const DisjointBoxLayout dbl(dom, 16);
  const VariantConfig cfg = makeShiftFuse(ParallelGranularity::WithinBox);

  LevelData ref0(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(ref0);
  LevelData expected(dbl, kernels::kNumComp, 0);
  FluxDivRunner runner(cfg, 2);
  runner.runLevel(ref0, expected);

  LevelData phi0(dbl, kernels::kNumComp, kernels::kNumGhost);
  kernels::initializeExemplar(phi0);
  LevelData actual(dbl, kernels::kNumComp, 0);
  LevelExecutor exec(cfg, 2, LevelExecOptions{LevelPolicy::BoxSequential});
  exec.runStep(phi0, actual);
  EXPECT_EQ(LevelData::maxAbsDiffValid(expected, actual), 0.0);
}

TEST(LevelExecutor, FirstTouchZeroFillsDeferredLevel) {
  const ProblemDomain dom(Box::cube(32));
  const DisjointBoxLayout dbl(dom, 16);
  LevelData level(dbl, kernels::kNumComp, kernels::kNumGhost, Pitch::Padded,
                  Init::Deferred);
  LevelExecutor exec(makeBaseline(ParallelGranularity::WithinBox), 3);
  exec.firstTouch(level);
  for (std::size_t b = 0; b < level.size(); ++b) {
    const grid::FArrayBox& fab = level[b];
    for (int c = 0; c < fab.nComp(); ++c) {
      const Real* p = fab.dataPtr(c);
      Real maxAbs = 0.0;
      grid::forEachCell(fab.box(), [&](int i, int j, int k) {
        const Real v = p[fab.offset(i, j, k)];
        if (v > maxAbs || -v > maxAbs) {
          maxAbs = v < 0 ? -v : v;
        }
      });
      EXPECT_EQ(maxAbs, 0.0) << "box " << b << " comp " << c;
    }
  }
}

/// Restores (or unsets) an env var on scope exit — the CI matrix runs this
/// binary with FLUXDIV_LEVEL_POLICY already set.
class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    if (prev != nullptr) {
      had_ = true;
      prev_ = prev;
    }
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

private:
  const char* name_;
  bool had_ = false;
  std::string prev_;
};

TEST(LevelExecutor, EnvOverrideRoutesRunnerThroughExecutor) {
  const LevelData phi0 = makeExchangedLevel(Pitch::Padded);
  const VariantConfig cfg = makeShiftFuse(ParallelGranularity::WithinBox);
  LevelData expected(phi0.layout(), kernels::kNumComp, 0);
  {
    FluxDivRunner runner(cfg, 3);
    runner.runLevel(phi0, expected);
  }
  for (const char* policy : {"parallel", "hybrid"}) {
    ScopedEnv guard("FLUXDIV_LEVEL_POLICY", policy);
    FluxDivRunner runner(cfg, 3);
    LevelData actual(phi0.layout(), kernels::kNumComp, 0);
    runner.run(phi0, actual);
    EXPECT_EQ(LevelData::maxAbsDiffValid(expected, actual), 0.0) << policy;
    EXPECT_GT(runner.maxPeakWorkspaceBytes(), 0u)
        << "delegated executor scratch must be accounted";
  }
}

TEST(LevelExecutor, EnvOverrideRejectsUnknownPolicy) {
  const LevelData phi0 = makeExchangedLevel(Pitch::Padded);
  ScopedEnv guard("FLUXDIV_LEVEL_POLICY", "warp-drive");
  FluxDivRunner runner(makeBaseline(ParallelGranularity::WithinBox), 2);
  LevelData phi1(phi0.layout(), kernels::kNumComp, 0);
  EXPECT_THROW(runner.run(phi0, phi1), std::invalid_argument);
}

TEST(LevelExecutor, ScaleIsHonoredUnderEveryPolicy) {
  const LevelData phi0 = makeExchangedLevel(Pitch::Padded);
  const VariantConfig cfg = makeBaseline(ParallelGranularity::WithinBox);
  const LevelData unit =
      evalPolicy(cfg, phi0, LevelPolicy::BoxSequential, 1, Pitch::Padded);
  for (const LevelPolicy policy :
       {LevelPolicy::BoxParallel, LevelPolicy::Hybrid}) {
    LevelData scaled(phi0.layout(), kernels::kNumComp, 0);
    LevelExecutor exec(cfg, 2, LevelExecOptions{policy, false});
    exec.run(phi0, scaled, 2.0);
    // 2*x is exact in binary floating point: still bit-comparable.
    Real worst = 0.0;
    for (std::size_t b = 0; b < unit.size(); ++b) {
      const Box valid = unit.validBox(b);
      const grid::FArrayBox& u = unit[b];
      const grid::FArrayBox& s = scaled[b];
      for (int c = 0; c < kernels::kNumComp; ++c) {
        const Real* up = u.dataPtr(c);
        const Real* sp = s.dataPtr(c);
        grid::forEachCell(valid, [&](int i, int j, int k) {
          const Real d = sp[s.offset(i, j, k)] - 2.0 * up[u.offset(i, j, k)];
          if (d > worst || -d > worst) {
            worst = d < 0 ? -d : d;
          }
        });
      }
    }
    EXPECT_EQ(worst, 0.0) << levelPolicyName(policy);
  }
}

#ifdef FLUXDIV_SHADOW_CHECK
TEST(LevelExecutorShadow, SeededRaceOnTaskPoolIsDetected) {
  // Two tasks on distinct pool workers write overlapping regions of the
  // same fab in one epoch. The atomic rendezvous blocks each task until
  // the other has started, so a single worker can never run both; the
  // shadow detector must attribute the writes to different workers and
  // flag the overlap.
  grid::FArrayBox fab(Box::cube(8), 1);
  fab.shadowBeginEpoch();
  const Box whole = Box::cube(8);
  const Box half = whole.lowSlab(2, 6); // overlaps `whole` in 8x8x4 cells

  TaskPool pool(2);
  std::atomic<int> arrived{0};
  TaskGraph graph;
  auto body = [&](const Box& region) {
    return [&, region](int) {
      arrived.fetch_add(1);
      while (arrived.load() < 2) {
        // Spin until both tasks are in flight on their own workers.
      }
      fab.shadowRecordWrite(region, 0, 1, TaskPool::currentWorker());
    };
  };
  graph.addTask(body(whole), 0);
  graph.addTask(body(half), 1);
  pool.run(graph);

  EXPECT_GT(fab.shadow().violationCount(), 0u)
      << "overlapping writes from two pool workers must be flagged";
}
#endif

} // namespace
} // namespace fluxdiv::core
