#pragma once
// LevelExecutor: task-parallel execution of one flux-divergence evaluation
// over a whole LevelData on the persistent work-stealing TaskPool
// (core/taskpool.hpp). Where FluxDivRunner's level loop parallelizes with
// OpenMP inside one box (or one omp-for over boxes), the executor lowers
// the level to a dependency-tracked graph of (box, phase/tile) tasks:
//
//   BoxSequential  boxes in sequence, within-box parallelism — exactly the
//                  runner's behavior today (delegates to it).
//   BoxParallel    one task per box running the family's serial schedule;
//                  the classic Chombo-style box decomposition, minus the
//                  OpenMP fork/join and static-schedule barriers. When the
//                  level has fewer boxes than workers, each box is cut into
//                  z-slab tasks (detail::decomposeBox) so every worker has
//                  work.
//   Hybrid         (box x tile) tasks: independent tiles for overlapped
//                  tiles, wavefront-ordered tile pipelines (per box, with
//                  front-to-front dependencies over sched/tiles
//                  TileWavefronts) for the blocked-wavefront family.
//                  Baseline/shift-fuse have no tile structure to pipeline,
//                  so hybrid takes the box-parallel region pieces for them.
//
// runStep() additionally overlaps the ghost exchange with interior
// compute: the exchange's CopyOps become ready-at-start tasks and each
// box's work splits into an interior task (no ghost dependence) plus
// halo-fringe tasks that depend only on the ops feeding their slab, so
// interior cells stream while halos copy (docs/perf.md).
//
// Every policy produces bit-identical phi1 to the sequential ordering:
// the families accumulate each cell's x, y, z flux differences in the
// same per-cell order, and fluxes are pure functions of phi0, so any
// region/tile decomposition reassociates nothing.

#include <memory>
#include <string>
#include <vector>

#include "analysis/verifygate.hpp"
#include "core/runner.hpp"
#include "core/taskpool.hpp"
#include "core/variant.hpp"
#include "core/workspace.hpp"
#include "grid/leveldata.hpp"

namespace fluxdiv::analysis {
struct TaskGraphModel;
struct GraphTask;
} // namespace fluxdiv::analysis

namespace fluxdiv::core {

struct LevelExecOptions {
  LevelPolicy policy = LevelPolicy::BoxSequential;
  /// runStep() overlaps ghost exchange with interior compute (parallel
  /// policies only; the sequential policy always takes the exchange()
  /// barrier).
  bool overlapExchange = true;
  /// Pin pool workers to hardware threads (best effort; Linux only).
  bool pin = false;
  /// Adversarial-replay execution (ReplayOrder::None = normal
  /// work-stealing): the graph runs serially in a hostile deterministic
  /// order, for shadow-checked determinism suites. The order and seed are
  /// appended to any shadow-violation message so failures replay exactly.
  ReplayMode replay{};
};

class LevelExecutor {
public:
  LevelExecutor(VariantConfig cfg, int nThreads,
                LevelExecOptions opts = {});
  ~LevelExecutor();
  LevelExecutor(const LevelExecutor&) = delete;
  LevelExecutor& operator=(const LevelExecutor&) = delete;

  [[nodiscard]] const VariantConfig& config() const { return cfg_; }
  [[nodiscard]] LevelPolicy policy() const { return opts_.policy; }
  [[nodiscard]] int nThreads() const { return nThreads_; }

  /// phi1 += scale * div(F(phi0)) over every valid cell. phi0's ghosts
  /// must already be exchanged (same contract as FluxDivRunner::run).
  void run(const grid::LevelData& phi0, grid::LevelData& phi1,
           grid::Real scale = 1.0);

  /// Ghost exchange + evaluation as one task graph: phi0.exchangeAsync()'s
  /// ops run as tasks alongside interior compute, and halo-dependent tasks
  /// wait only for the ops feeding them. The hot-path replacement for the
  /// exchange(); run() pair.
  void runStep(grid::LevelData& phi0, grid::LevelData& phi1,
               grid::Real scale = 1.0);

  /// Lower the task graph this executor would run (run() when
  /// `withExchange` is false, runStep() when true) to its analysis-layer
  /// model — per-task labels, exact read/write footprints, dependency
  /// edges — without executing anything. Feed the result to
  /// analysis::checkTaskGraph (the same model the FLUXDIV_GRAPH_VERIFY
  /// gate checks before first execution). Throws std::invalid_argument
  /// for the sequential policy, which has no task graph.
  [[nodiscard]] analysis::TaskGraphModel
  lowerGraph(grid::LevelData& phi0, grid::LevelData& phi1,
             bool withExchange);

  /// Zero-fill every box of `level` under the worker that owns its tasks
  /// (sticky box -> thread affinity), so first-touch places each box's
  /// pages on the owner's NUMA node. Pair with grid::Init::Deferred
  /// allocation; harmless (one redundant fill) after Init::Zero.
  void firstTouch(grid::LevelData& level);

  /// Largest per-worker scratch peak across the task pool and the
  /// delegated sequential runner.
  [[nodiscard]] std::size_t maxPeakWorkspaceBytes() const;
  /// Sum of all scratch peaks: per-worker pools plus the per-box shared
  /// blocked-wavefront caches.
  [[nodiscard]] std::size_t totalPeakWorkspaceBytes() const;

private:
  /// Per-destination-box exchange-op tasks: ids plus the ghost regions
  /// they fill, for intersecting against compute-task footprints.
  struct OpTasks {
    std::vector<std::vector<std::pair<int, grid::Box>>> byBox;
  };

  /// Builds the executable TaskGraph and (optionally) its analysis-layer
  /// mirror from the same call sites, so the verified model cannot drift
  /// from the graph that actually runs. `note(task)` hands back the
  /// model-side task for footprint annotation (null when not mirroring).
  struct GraphBuild {
    TaskGraph& graph;
    analysis::TaskGraphModel* model = nullptr;

    int addTask(TaskGraph::Fn fn, int owner, std::string label);
    void addDep(int before, int after);
    [[nodiscard]] analysis::GraphTask* note(int task) const;
  };

  [[nodiscard]] int ownerOf(std::size_t box) const {
    return static_cast<int>(box % static_cast<std::size_t>(nThreads_));
  }

  void validate(const grid::LevelData& phi0,
                const grid::LevelData& phi1) const;

  /// Append this level's compute tasks to `build` under the configured
  /// policy. `ops` is null when ghosts are already current (run()); when
  /// non-null (runStep()), ghost-reading tasks get edges from the ops
  /// intersecting their read footprint.
  void buildComputeTasks(GraphBuild& build, const grid::LevelData& phi0,
                         grid::LevelData& phi1, grid::Real scale,
                         const OpTasks* ops);

  void buildBoxTasks(GraphBuild& build, const grid::LevelData& phi0,
                     grid::LevelData& phi1, grid::Real scale,
                     const OpTasks* ops);
  void buildOverlappedTileTasks(GraphBuild& build,
                                const grid::LevelData& phi0,
                                grid::LevelData& phi1, grid::Real scale,
                                const OpTasks* ops);
  void buildBlockedWFTasks(GraphBuild& build, const grid::LevelData& phi0,
                           grid::LevelData& phi1, grid::Real scale,
                           const OpTasks* ops);

  /// Fill the model header (name, validBoxes, ghost contract) for this
  /// executor's graph over `phi0`'s layout.
  void initGraphModel(analysis::TaskGraphModel& model,
                      const grid::LevelData& phi0,
                      bool withExchange) const;

  /// Shape key shared by the graph/comm gates: both graphs and exchange
  /// plans are pure functions of the layout's box shapes (box count,
  /// first valid box, level hull — plus the per-gate suffix the callers
  /// append), so one verification covers every later step with the same
  /// level shape.
  static std::string levelShapeKey(const grid::LevelData& phi0);

  /// FLUXDIV_COMM_VERIFY support: on the first runStep() over a new
  /// (layout, nghost) shape, prove the level's exchange plan exact,
  /// matched, and deadlock-free (analysis/commcheck) under rank
  /// partitions {1,2,4,8}; throws std::logic_error with the witness
  /// diagnostics on failure. Later steps with the same shape are free.
  void verifyCommOnce(const grid::LevelData& phi0);

  /// Run `graph` honoring opts_.replay.
  void dispatch(TaskGraph& graph);

  /// "LevelExecutor::run" / "...::runStep", plus the replay order and
  /// seed when replaying, so shadow failures are reproducible.
  [[nodiscard]] std::string whereTag(const char* entry) const;

  VariantConfig cfg_;
  int nThreads_;
  LevelExecOptions opts_;
  FluxDivRunner runner_;  ///< sequential policy + verify/advise gates
  WorkspacePool pool_;    ///< per-worker scratch for task bodies
  std::vector<Workspace> boxShared_; ///< per-box blocked-WF cache storage
  TaskPool taskPool_;
  analysis::VerifyGate graphGate_; ///< FLUXDIV_GRAPH_VERIFY, once per shape
  analysis::VerifyGate commGate_;  ///< FLUXDIV_COMM_VERIFY, once per shape
};

} // namespace fluxdiv::core
