#include "core/engine.hpp"

#include <algorithm>
#include <limits>

#include "graph/topology.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"

namespace dlb {

namespace {

/// Phase-latency histograms of the flat engine, registered once on first
/// use (leaked: handle lifetime must cover static teardown).
struct FlatPhases {
  obs::Histogram& prepare;
  obs::Histogram& decide;
  obs::Histogram& apply;
  obs::Histogram& scatter;  ///< one observer-free (plan) round
};

FlatPhases& flat_phases() {
  static FlatPhases* p = new FlatPhases{
      obs::phase("flat", "prepare"), obs::phase("flat", "decide"),
      obs::phase("flat", "apply"), obs::phase("flat", "scatter")};
  return *p;
}

}  // namespace

Engine::Engine(const Graph& g, EngineConfig config, Balancer& balancer,
               LoadVector initial)
    : g_(&g), config_(config), balancer_(&balancer) {
  DLB_REQUIRE(config_.self_loops >= 0, "self_loops must be non-negative");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  adopt_loads(std::move(initial));
  next_.assign(loads_.size(), 0);
  balancer_->reset(g, config_.self_loops);
  serial_.emplace(g, config_.self_loops, balancer_->gathers(g), 1);
}

void Engine::add_observer(StepObserver& observer) {
  observers_.push_back(&observer);
}

template <class Topo>
LoadScan Engine::apply_rows(const Topo& topo, Load* next) const {
  const int d = topo.degree();
  const int d_plus = balancing_degree();
  const Load* rows = flows_.data();
  const bool negatives_ok = balancer_->allows_negative();
  Load lo = std::numeric_limits<Load>::max();
  Load hi = std::numeric_limits<Load>::min();
  std::uint64_t sum = 0;  // wraps, as LoadScan's Σ does
  const NodeId n = g_->num_nodes();
  auto cur = topo.cursor(0);
  for (NodeId v = 0; v < n; ++v, cur.advance()) {
    const Load* own = rows + static_cast<std::size_t>(v) * d_plus;
    // kept(v) = x(v) − Σ edge flows out of v: the remainder plus every
    // self-loop share, without reading the self-loop slots.
    Load acc = loads_[static_cast<std::size_t>(v)];
    for (int p = 0; p < d; ++p) acc -= own[p];
    // The oversend contract on the movement that matters: edge flows
    // beyond the available load would go unnoticed here otherwise — the
    // pull phase conserves totals even for a buggy kernel, so the
    // conservation audit cannot catch it.
    DLB_REQUIRE(negatives_ok || acc >= 0,
                "balancer sent more tokens than available");
#ifndef NDEBUG
    // Debug builds also audit the self-loop slots (they never move
    // tokens, but observers consume them as the flow matrix): the full
    // row must not assign more than the available load either.
    if (!negatives_ok) {
      Load self_assigned = 0;
      for (int p = d; p < d_plus; ++p) self_assigned += own[p];
      DLB_ASSERT(self_assigned >= 0 && self_assigned <= acc,
                 "row kernel over-assigned self-loop ports");
    }
#endif
    for (int p = 0; p < d; ++p) {
      acc += rows[static_cast<std::size_t>(cur.neighbor(p)) * d_plus +
                  cur.rev_port(p)];
    }
    next[static_cast<std::size_t>(v)] = acc;
    lo = std::min(lo, acc);
    hi = std::max(hi, acc);
    sum += static_cast<std::uint64_t>(acc);
  }
  return {lo, hi, static_cast<Load>(sum)};
}

void Engine::step_rows() {
  // The record matrix needs no zeroing: kernels overwrite every entry of
  // the rows they decide.
  flows_.resize(loads_.size() * static_cast<std::size_t>(balancing_degree()));
  const NodeId n = g_->num_nodes();
  FlowSink sink(*g_, config_.self_loops, flows_.data());
  {
    obs::PhaseScope phase(flat_phases().prepare, "prepare", "flat", "t",
                          time() + 1);
    balancer_->prepare_round(loads_, time(), sink);
  }
  {
    obs::PhaseScope phase(flat_phases().decide, "decide", "flat", "t",
                          time() + 1);
    balancer_->decide_range(0, n, loads_, time(), sink);
  }
  LoadScan round;
  {
    obs::PhaseScope phase(flat_phases().apply, "apply", "flat", "t",
                          time() + 1);
    // The pull dispatches on the topology tag once per round: on
    // cycle/torus/hypercube every neighbor and rev_port is computed in
    // registers, the tables are never streamed.
    with_topology(*g_, [&](const auto& topo) {
      round = apply_rows(topo, next_.data());
    });
  }
  for (StepObserver* o : observers_) {
    o->on_step(time() + 1, *g_, config_.self_loops, loads_, flows_, next_);
  }
  loads_.swap(next_);
  publish_round_stats(round);
}

void Engine::step_plan(RoundPlan& plan, ThreadPool* pool) {
  obs::PhaseScope phase(flat_phases().scatter, "scatter", "flat", "t",
                        time() + 1);
  Load* const next = next_.data();
  const Step t = time();
  {
    FlowSink sink = FlowSink::scatter(*g_, config_.self_loops, next);
    balancer_->prepare_round(loads_, t, sink);
  }
  const int k = plan.parts();
  std::vector<LoadScan> scans(static_cast<std::size_t>(k));
  plan.each_part(pool, [&](int s) {
    plan.decide(s, *balancer_, loads_, t, next);
  });
  // Each part adds in what the others staged for it, then closes; with
  // no cut there is nothing to add, so no second barrier. A pooled
  // multi-touch part then scans its final slice, sparing the ledger a
  // serial pass over the loads.
  const bool scan_parts = pool != nullptr && !plan.gathers();
  plan.each_part(plan.has_cut() ? pool : nullptr, [&](int s) {
    for (int o = 0; o < k; ++o) {
      plan.receive(s, o, std::as_bytes(plan.staged(o, s)), next);
    }
    LoadScan& scan = scans[static_cast<std::size_t>(s)];
    scan = plan.finish(s, next);
    const ShardPartition& part = plan.partition();
    if (scan_parts) scan.add({next + part.begin(s), next + part.end(s)});
  });
  if (plan.gathers() || scan_parts) {
    // The parts' scans cover every slot. A serial multi-touch round
    // publishes nothing: the ledger scans the loads.
    LoadScan round;
    for (const LoadScan& part : scans) round.merge(part);
    publish_round_stats(round);
  }
  loads_.swap(next_);
}

void Engine::do_step() {
  if (observers_.empty()) {
    step_plan(*serial_, nullptr);
  } else {
    step_rows();
  }
}

void Engine::do_step_parallel(ThreadPool& pool) {
  // Observer rounds, and balancers whose decides must run in node order,
  // stay serial; any other runs one part per worker.
  const int k = static_cast<int>(
      std::min<std::int64_t>(pool.parallelism(), g_->num_nodes()));
  if (!observers_.empty() || !balancer_->parallel_decide_safe() || k == 1) {
    do_step();
    return;
  }
  if (!pooled_ || pooled_->parts() != k) {
    pooled_.emplace(*g_, config_.self_loops, serial_->gathers(), k,
                    /*shared_loads=*/true);
  }
  step_plan(*pooled_, &pool);
}

}  // namespace dlb
