#include "core/exec_level.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/commcheck.hpp"
#include "analysis/graphcheck.hpp"
#include "core/exec_common.hpp"
#include "kernels/footprint.hpp"
#include "sched/tiles.hpp"

namespace fluxdiv::core {

using detail::Box;
using detail::FArrayBox;
using detail::kNumComp;
using detail::kNumGhost;
using grid::LevelData;
using grid::Real;

namespace {

using analysis::FieldId;
using analysis::GraphTask;
using analysis::TaskAccess;
using kernels::readRegion;
using kernels::Stage;
using kernels::velocityComp;

std::string coordTag(const grid::IntVect& p) {
  std::string s("(");
  s += std::to_string(p[0]);
  s += ',';
  s += std::to_string(p[1]);
  s += ',';
  s += std::to_string(p[2]);
  s += ')';
  return s;
}

TaskAccess acc(FieldId f, std::size_t box, int c0, int nc, const Box& r) {
  return TaskAccess{f, box, /*slot=*/0, c0, nc, r};
}

// ---------------------------------------------------------------------------
// Footprint annotations for the mirrored TaskGraphModel. Each helper takes
// the model-side task (null when no model is attached) and records the
// exact cell regions the task body touches, mirroring the per-stage
// regions lower.cpp declares from kernels/footprint.hpp.
// ---------------------------------------------------------------------------

/// Footprints of a whole-region serial evaluation (runBoxSerialDispatch):
/// phi1 += div(F(phi0)) over `region`. The per-direction phi0 read is
/// identical for every family — readRegion(EvalFlux1, d, region.faceBox(d))
/// equals readRegion(FusedCell, d, region), the region extended +/-2 along
/// d only — so the model is exact, not a conservative hull: the plus-shaped
/// union never includes corner ghost cells, which is what lets the
/// over-sync pass prove corner-op edges removable.
void noteSerialRegion(GraphTask* t, std::size_t b, const Box& region) {
  if (t == nullptr) {
    return;
  }
  for (int d = 0; d < grid::SpaceDim; ++d) {
    t->reads.push_back(acc(FieldId::Phi0, b, 0, kNumComp,
                           readRegion(Stage::FusedCell, d, region)));
  }
  t->writes.push_back(acc(FieldId::Phi1, b, 0, kNumComp, region));
}

/// Footprints of one blocked-wavefront tile sweep (blockedWFRunTile),
/// mirroring lower.cpp's blockedTileStage: fused over the tile, low-face
/// fluxes drawn from (and high-face fluxes deposited into) the box-global
/// co-dimension caches. `comp` is -1 for the CLI all-component sweep, else
/// the CLO pass component.
void noteBlockedTile(GraphTask* t, std::size_t b, int comp, const Box& tb,
                     const grid::IntVect& coords) {
  if (t == nullptr) {
    return;
  }
  const bool cli = comp < 0;
  const int c0 = cli ? 0 : comp;
  const int nc = cli ? kNumComp : 1;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    t->reads.push_back(acc(FieldId::Phi0, b, c0, nc,
                           readRegion(Stage::FusedCell, d, tb)));
    if (!cli) {
      t->reads.push_back(
          acc(FieldId::Velocity, b, d, 1, tb.faceBox(d)));
    }
    if (coords[d] > 0) {
      // Entry cells consume the -d neighbor's deposited boundary fluxes.
      t->reads.push_back(acc(analysis::taskCacheField(d), b, 0, nc,
                             analysis::taskSlotBox(d, tb)));
    }
    t->writes.push_back(acc(analysis::taskCacheField(d), b, 0, nc,
                            analysis::taskSlotBox(d, tb)));
  }
  t->writes.push_back(acc(FieldId::Phi1, b, c0, nc, tb));
}

/// Footprints of the CLO whole-box face-velocity precompute.
void noteVelocity(GraphTask* t, std::size_t b, const Box& valid) {
  if (t == nullptr) {
    return;
  }
  for (int d = 0; d < grid::SpaceDim; ++d) {
    const Box fb = valid.faceBox(d);
    t->reads.push_back(acc(FieldId::Phi0, b, velocityComp(d), 1,
                           readRegion(Stage::EvalFlux1, d, fb)));
    t->writes.push_back(acc(FieldId::Velocity, b, d, 1, fb));
  }
}

/// Footprints of one ghost-exchange copy op: writes the destination box's
/// ghost region, reads the (shifted) source region of the neighbor.
void noteExchangeOp(GraphTask* t, const grid::CopyOp& op) {
  if (t == nullptr) {
    return;
  }
  t->exchangeOp = true;
  t->writes.push_back(
      acc(FieldId::Phi0, op.destBox, 0, kNumComp, op.destRegion));
  t->reads.push_back(
      acc(FieldId::Phi0, op.srcBox, 0, kNumComp, op.srcRegion()));
}

#ifdef FLUXDIV_GRAPH_VERIFY
/// Gate failure: a freshly-built graph has unordered conflicting tasks (or
/// a cycle). Nothing has executed; fail with the first few witnesses.
void throwOnGraphDiagnostics(const analysis::TaskGraphModel& model) {
  const analysis::GraphCheckReport report =
      analysis::checkTaskGraph(model, /*findRemovable=*/false);
  if (report.ok()) {
    return;
  }
  std::vector<std::string> msgs;
  msgs.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) {
    msgs.push_back(d.message());
  }
  throw std::logic_error(analysis::verifyFailureMessage(
      "LevelExecutor: task-graph verification failed for '" + model.name +
          "'",
      msgs));
}
#endif

/// Compile-time halves of the executor's gates (analysis::VerifyGate
/// handles the run-time environment override and the once-per-shape memo).
constexpr bool kGraphVerifyCompiled =
#ifdef FLUXDIV_GRAPH_VERIFY
    true;
#else
    false;
#endif
constexpr bool kCommVerifyCompiled =
#ifdef FLUXDIV_COMM_VERIFY
    true;
#else
    false;
#endif

} // namespace

int LevelExecutor::GraphBuild::addTask(TaskGraph::Fn fn, int owner,
                                       std::string label) {
  if (model != nullptr) {
    model->addTask(label);
  }
  return graph.addTask(std::move(fn), owner, std::move(label));
}

void LevelExecutor::GraphBuild::addDep(int before, int after) {
  graph.addDep(before, after);
  if (model != nullptr) {
    model->addEdge(before, after);
  }
}

analysis::GraphTask* LevelExecutor::GraphBuild::note(int task) const {
  return model != nullptr
             ? &model->tasks[static_cast<std::size_t>(task)]
             : nullptr;
}

LevelExecutor::LevelExecutor(VariantConfig cfg, int nThreads,
                             LevelExecOptions opts)
    : cfg_(cfg), nThreads_(nThreads), opts_(opts), runner_(cfg, nThreads),
      pool_(nThreads), taskPool_(nThreads, opts.pin),
      graphGate_("FLUXDIV_VERIFY_GRAPH", kGraphVerifyCompiled),
      commGate_("FLUXDIV_VERIFY_COMM", kCommVerifyCompiled) {}

LevelExecutor::~LevelExecutor() = default;

void LevelExecutor::validate(const LevelData& phi0,
                             const LevelData& phi1) const {
  if (phi0.size() != phi1.size()) {
    throw std::invalid_argument(
        "LevelExecutor: layout mismatch between levels");
  }
  if (phi0.nComp() != kNumComp || phi1.nComp() != kNumComp) {
    throw std::invalid_argument(
        "LevelExecutor: levels must have kNumComp components");
  }
  if (phi0.nGhost() < kNumGhost) {
    throw std::invalid_argument(
        "LevelExecutor: phi0 needs >= kNumGhost ghost layers");
  }
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    if (!cfg_.validFor(phi0.validBox(b).size(0))) {
      throw std::invalid_argument("variant '" + cfg_.name() +
                                  "' is not valid for this layout");
    }
  }
}

void LevelExecutor::buildComputeTasks(GraphBuild& build,
                                      const LevelData& phi0,
                                      LevelData& phi1, Real scale,
                                      const OpTasks* ops) {
  switch (cfg_.family) {
  case ScheduleFamily::OverlappedTiles:
    if (opts_.policy == LevelPolicy::Hybrid) {
      buildOverlappedTileTasks(build, phi0, phi1, scale, ops);
      return;
    }
    break;
  case ScheduleFamily::BlockedWavefront:
    if (opts_.policy == LevelPolicy::Hybrid) {
      buildBlockedWFTasks(build, phi0, phi1, scale, ops);
      return;
    }
    break;
  case ScheduleFamily::SeriesOfLoops:
  case ScheduleFamily::ShiftFuse:
    // No tile structure to pipeline: hybrid takes the box-parallel
    // decomposition, whose region pieces (fringe slabs, z-slabs of a
    // large box) are the intra-box units these families have.
    break;
  }
  buildBoxTasks(build, phi0, phi1, scale, ops);
}

void LevelExecutor::buildBoxTasks(GraphBuild& build, const LevelData& phi0,
                                  LevelData& phi1, Real scale,
                                  const OpTasks* ops) {
  constexpr int g = kNumGhost;
  // run() reads current ghosts, so the box is one region; runStep()
  // peels the halo fringe so the interior streams while ghosts copy. The
  // shared decomposition cuts the whole box (or its interior) into
  // z-slabs when the level has fewer boxes than workers.
  const detail::BoxCut cut =
      ops == nullptr ? detail::BoxCut::Whole : detail::BoxCut::PeelFringe;
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    const FArrayBox* src = &phi0[b];
    FArrayBox* dst = &phi1[b];
    const std::string boxTag = "box " + std::to_string(b);
    for (const detail::BoxPiece& piece : detail::decomposeBox(
             phi0.validBox(b), cut, phi0.size(), nThreads_)) {
      const Box region = piece.region;
      const int task = build.addTask(
          [this, src, dst, region, scale](int worker) {
            detail::runBoxSerialDispatch(cfg_, *src, *dst, region,
                                         pool_[worker], scale);
          },
          ownerOf(b), boxTag + piece.tag);
      noteSerialRegion(build.note(task), b, region);
      if (ops == nullptr) {
        continue;
      }
      // Edges from the exchange ops whose ghost fill intersects the
      // piece's phi0 read footprint (region grown by the stencil radius);
      // the interior pieces read no ghost and get none.
      const Box readFootprint = region.grow(g);
      for (const auto& [opTask, ghostRegion] : ops->byBox[b]) {
        if (!(ghostRegion & readFootprint).empty()) {
          build.addDep(opTask, task);
        }
      }
    }
  }
}

void LevelExecutor::buildOverlappedTileTasks(GraphBuild& build,
                                             const LevelData& phi0,
                                             LevelData& phi1, Real scale,
                                             const OpTasks* ops) {
  constexpr int g = kNumGhost;
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    const Box valid = phi0.validBox(b);
    const FArrayBox* src = &phi0[b];
    FArrayBox* dst = &phi1[b];
    const int owner = ownerOf(b);
    const std::string boxTag = "box " + std::to_string(b);
    const sched::TileSet tiles = detail::makeTileSet(cfg_, valid);
    for (std::size_t t = 0; t < tiles.size(); ++t) {
      const Box tileBox = tiles.tileBox(t);
      const int task = build.addTask(
          [this, src, dst, tileBox, scale](int worker) {
            detail::overlappedRunTile(cfg_, *src, *dst, tileBox,
                                      pool_[worker], scale);
          },
          owner, boxTag + " tile " + coordTag(tiles.tileCoords(t)));
      noteSerialRegion(build.note(task), b, tileBox);
      // Tiles whose read footprint stays inside the valid region never
      // touch ghosts: they run concurrently with the exchange ops.
      if (ops != nullptr && !valid.contains(tileBox.grow(g))) {
        for (const auto& [opTask, ghostRegion] : ops->byBox[b]) {
          if (!(ghostRegion & tileBox.grow(g)).empty()) {
            build.addDep(opTask, task);
          }
        }
      }
    }
  }
}

void LevelExecutor::buildBlockedWFTasks(GraphBuild& build,
                                        const LevelData& phi0,
                                        LevelData& phi1, Real scale,
                                        const OpTasks* ops) {
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    const Box valid = phi0.validBox(b);
    const FArrayBox* src = &phi0[b];
    FArrayBox* dst = &phi1[b];
    const int owner = ownerOf(b);
    const std::string boxTag = "box " + std::to_string(b);
    // Size the box-shared carry caches here, single-threaded (Workspace
    // bookkeeping is not thread-safe); the tile tasks get stable pointers.
    const detail::BlockedWFCaches caches =
        detail::blockedWFPrepareBox(cfg_, boxShared_[b], valid);
    const sched::TileSet tiles = detail::makeTileSet(cfg_, valid);
    const sched::TileWavefronts fronts(tiles);

    auto addOpDeps = [&](int task) {
      if (ops != nullptr) {
        for (const auto& [opTask, ghostRegion] : ops->byBox[b]) {
          (void)ghostRegion; // stage 0 conservatively waits for all halos
          build.addDep(opTask, task);
        }
      }
    };
    auto addTileTask = [&](int comp, std::size_t tile, std::size_t w) {
      const Box tileBox = tiles.tileBox(tile);
      std::string label = boxTag + " tile " +
                          coordTag(tiles.tileCoords(tile)) + " front " +
                          std::to_string(w);
      if (comp >= 0) {
        label += " c=" + std::to_string(comp);
      }
      const int task = build.addTask(
          [this, src, dst, comp, caches, tileBox, valid,
           scale](int worker) {
            detail::blockedWFRunTile(cfg_, *src, *dst, comp, caches,
                                     tileBox, valid, pool_[worker], scale);
          },
          owner, std::move(label));
      noteBlockedTile(build.note(task), b, comp, tileBox,
                      tiles.tileCoords(tile));
      return task;
    };
    // The wavefront pipeline: every tile of front w waits for all tiles of
    // front w-1 of the same box (the carry caches flow along +x, +y, +z, so
    // the front-to-front barrier is a conservative superset of the true
    // tile dependences — the same ordering the OpenMP path enforces).
    auto addFrontSequence = [&](int comp, std::vector<int> prev,
                                bool depsOnOps) {
      for (std::size_t w = 0; w < fronts.count(); ++w) {
        std::vector<int> cur;
        cur.reserve(fronts.front(w).size());
        for (const std::size_t t : fronts.front(w)) {
          const int task = addTileTask(comp, t, w);
          for (const int p : prev) {
            build.addDep(p, task);
          }
          if (w == 0 && depsOnOps) {
            addOpDeps(task);
          }
          cur.push_back(task);
        }
        prev = std::move(cur);
      }
      return prev; // the last front's tasks
    };

    if (cfg_.comp == ComponentLoop::Inside) {
      // CLI: one pass over the tile wavefronts covers all components.
      addFrontSequence(-1, {}, /*depsOnOps=*/true);
    } else {
      // CLO: whole-box face-velocity pre-stage, then one wavefront pass
      // per component. Component c reuses the caches of c-1, so its first
      // front waits for c-1's last front (transitively, for all of c-1).
      grid::FArrayBox* vel = caches.vel;
      const int velTask = build.addTask(
          [src, vel, valid](int) {
            detail::blockedWFPrecomputeVelocity(*src, *vel, valid);
          },
          owner, boxTag + " velocity");
      noteVelocity(build.note(velTask), b, valid);
      addOpDeps(velTask);
      std::vector<int> prev{velTask};
      for (int c = 0; c < kNumComp; ++c) {
        prev = addFrontSequence(c, std::move(prev), /*depsOnOps=*/false);
      }
    }
  }
}

void LevelExecutor::initGraphModel(analysis::TaskGraphModel& model,
                                   const LevelData& phi0,
                                   bool withExchange) const {
  model.name = cfg_.name() + " [" +
               std::string(levelPolicyName(opts_.policy)) +
               (withExchange ? " runStep]" : " run]");
  model.ghostsPreExchanged = !withExchange;
  model.validBoxes.clear();
  model.validBoxes.reserve(phi0.size());
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    model.validBoxes.push_back(phi0.validBox(b));
  }
}

std::string LevelExecutor::levelShapeKey(const LevelData& phi0) {
  const Box first = phi0.validBox(0);
  grid::IntVect lo = first.lo();
  grid::IntVect hi = first.hi();
  for (std::size_t b = 1; b < phi0.size(); ++b) {
    lo = grid::IntVect::min(lo, phi0.validBox(b).lo());
    hi = grid::IntVect::max(hi, phi0.validBox(b).hi());
  }
  std::string key = std::to_string(phi0.size());
  for (const grid::IntVect& v : {first.lo(), first.hi(), lo, hi}) {
    for (int d = 0; d < grid::SpaceDim; ++d) {
      key += ',' + std::to_string(v[d]);
    }
  }
  return key;
}

void LevelExecutor::verifyCommOnce(const LevelData& phi0) {
  if (phi0.size() == 0 || phi0.nGhost() <= 0 ||
      !commGate_.shouldVerify(levelShapeKey(phi0) + ";g" +
                              std::to_string(phi0.nGhost()))) {
    return;
  }
  analysis::CommPlanModel model = analysis::buildCommPlanModel(
      phi0.layout(), phi0.copier(), phi0.nComp());
  for (const int nranks : {1, 2, 4, 8}) {
    if (static_cast<std::size_t>(nranks) > phi0.size()) {
      break;
    }
    analysis::applyRankPartition(model, nranks);
    const analysis::CommCheckReport report =
        analysis::checkCommPlan(model);
    if (report.ok()) {
      continue;
    }
    std::vector<std::string> msgs;
    msgs.reserve(report.diagnostics.size());
    for (const auto& d : report.diagnostics) {
      msgs.push_back(d.message());
    }
    throw std::logic_error(analysis::verifyFailureMessage(
        "LevelExecutor: exchange-plan verification failed for '" +
            model.name + "' under " + std::to_string(nranks) + " rank(s)",
        msgs));
  }
}

void LevelExecutor::dispatch(TaskGraph& graph) {
  if (opts_.replay.order == ReplayOrder::None) {
    taskPool_.run(graph);
  } else {
    taskPool_.runReplay(graph, opts_.replay);
  }
}

std::string LevelExecutor::whereTag(const char* entry) const {
  std::string where(entry);
  if (opts_.replay.order != ReplayOrder::None) {
    where += std::string(" [replay ") +
             replayOrderName(opts_.replay.order) + " seed " +
             std::to_string(opts_.replay.seed) + "]";
  }
  return where;
}

void LevelExecutor::run(const LevelData& phi0, LevelData& phi1,
                        Real scale) {
  validate(phi0, phi1);
  if (opts_.policy == LevelPolicy::BoxSequential) {
    runner_.runLevel(phi0, phi1, scale);
    return;
  }
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    runner_.prepare(phi0.validBox(b)); // cached after the first box shape
  }
  if (boxShared_.size() < phi0.size()) {
    boxShared_.resize(phi0.size());
  }
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    phi1[b].shadowBeginEpoch();
  }
#endif
  TaskGraph graph;
  GraphBuild build{graph};
#ifdef FLUXDIV_GRAPH_VERIFY
  analysis::TaskGraphModel model;
  if (graphGate_.shouldVerify(levelShapeKey(phi0) + ";run")) {
    initGraphModel(model, phi0, /*withExchange=*/false);
    build.model = &model;
  }
#endif
  buildComputeTasks(build, phi0, phi1, scale, nullptr);
#ifdef FLUXDIV_GRAPH_VERIFY
  if (build.model != nullptr) {
    throwOnGraphDiagnostics(model);
  }
#endif
  dispatch(graph);
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    detail::throwOnShadowViolations(
        phi1[b], whereTag("LevelExecutor::run").c_str());
  }
#endif
}

void LevelExecutor::runStep(LevelData& phi0, LevelData& phi1, Real scale) {
#ifdef FLUXDIV_COMM_VERIFY
  verifyCommOnce(phi0);
#endif
  if (opts_.policy == LevelPolicy::BoxSequential ||
      !opts_.overlapExchange) {
    phi0.exchange();
    run(phi0, phi1, scale);
    return;
  }
  validate(phi0, phi1);
  for (std::size_t b = 0; b < phi0.size(); ++b) {
    runner_.prepare(phi0.validBox(b));
  }
  if (boxShared_.size() < phi0.size()) {
    boxShared_.resize(phi0.size());
  }
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    phi1[b].shadowBeginEpoch();
  }
#endif
  grid::AsyncExchange ax = phi0.exchangeAsync();
  TaskGraph graph;
  GraphBuild build{graph};
#ifdef FLUXDIV_GRAPH_VERIFY
  analysis::TaskGraphModel model;
  if (graphGate_.shouldVerify(levelShapeKey(phi0) + ";runStep")) {
    initGraphModel(model, phi0, /*withExchange=*/true);
    build.model = &model;
  }
#endif
  OpTasks ops;
  ops.byBox.resize(phi0.size());
  for (std::size_t i = 0; i < ax.opCount(); ++i) {
    const grid::CopyOp& op = ax.op(i);
    const int task = build.addTask(
        [&ax, i](int) { ax.runOp(i); }, ownerOf(op.destBox),
        "exchange op " + std::to_string(i) + " -> box " +
            std::to_string(op.destBox));
    noteExchangeOp(build.note(task), op);
    ops.byBox[op.destBox].emplace_back(task, op.destRegion);
  }
  buildComputeTasks(build, phi0, phi1, scale, &ops);
#ifdef FLUXDIV_GRAPH_VERIFY
  if (build.model != nullptr) {
    throwOnGraphDiagnostics(model);
  }
#endif
  dispatch(graph);
  // Every op ran as a task, so this is a no-op; it documents (and would
  // repair) the invariant that the exchange is complete on return.
  ax.finish();
#ifdef FLUXDIV_SHADOW_CHECK
  for (std::size_t b = 0; b < phi1.size(); ++b) {
    detail::throwOnShadowViolations(
        phi1[b], whereTag("LevelExecutor::runStep").c_str());
  }
#endif
}

analysis::TaskGraphModel LevelExecutor::lowerGraph(LevelData& phi0,
                                                   LevelData& phi1,
                                                   bool withExchange) {
  if (opts_.policy == LevelPolicy::BoxSequential) {
    throw std::invalid_argument(
        "LevelExecutor::lowerGraph: the sequential policy has no task "
        "graph");
  }
  validate(phi0, phi1);
  if (boxShared_.size() < phi0.size()) {
    boxShared_.resize(phi0.size()); // blockedWFPrepareBox runs at build
  }
  analysis::TaskGraphModel model;
  initGraphModel(model, phi0, withExchange);
  TaskGraph graph; // built alongside the model, never executed
  GraphBuild build{graph, &model};
  if (!withExchange) {
    buildComputeTasks(build, phi0, phi1, /*scale=*/1.0, nullptr);
    return model;
  }
  grid::AsyncExchange ax = phi0.exchangeAsync();
  OpTasks ops;
  ops.byBox.resize(phi0.size());
  for (std::size_t i = 0; i < ax.opCount(); ++i) {
    const grid::CopyOp& op = ax.op(i);
    const int task = build.addTask(
        [&ax, i](int) { ax.runOp(i); }, ownerOf(op.destBox),
        "exchange op " + std::to_string(i) + " -> box " +
            std::to_string(op.destBox));
    noteExchangeOp(build.note(task), op);
    ops.byBox[op.destBox].emplace_back(task, op.destRegion);
  }
  buildComputeTasks(build, phi0, phi1, /*scale=*/1.0, &ops);
  // The op tasks never execute as tasks here; complete the exchange for
  // real so phi0 is not left with stale ghosts.
  ax.finish();
  return model;
}

void LevelExecutor::firstTouch(LevelData& level) {
  TaskGraph graph;
  for (std::size_t b = 0; b < level.size(); ++b) {
    graph.addTask([fab = &level[b]](int) { fab->setVal(0.0); },
                  ownerOf(b), "first-touch box " + std::to_string(b));
  }
  taskPool_.run(graph);
}

std::size_t LevelExecutor::maxPeakWorkspaceBytes() const {
  std::size_t worst = std::max(pool_.maxPeakBytes(),
                               runner_.maxPeakWorkspaceBytes());
  for (const auto& ws : boxShared_) {
    worst = std::max(worst, ws.peakBytes());
  }
  return worst;
}

std::size_t LevelExecutor::totalPeakWorkspaceBytes() const {
  std::size_t total =
      pool_.totalPeakBytes() + runner_.totalPeakWorkspaceBytes();
  for (const auto& ws : boxShared_) {
    total += ws.peakBytes();
  }
  return total;
}

} // namespace fluxdiv::core
