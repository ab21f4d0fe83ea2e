#include "core/engine.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

#include "graph/topology.hpp"
#include "obs/trace.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Phase-latency histograms of the flat engine, registered once on first
/// use (leaked: handle lifetime must cover static teardown).
struct FlatPhases {
  obs::Histogram& prepare;
  obs::Histogram& decide;
  obs::Histogram& apply;
  obs::Histogram& scatter;  ///< fused decide+apply of the scatter path
};

FlatPhases& flat_phases() {
  static FlatPhases* p = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string name = "dlb_engine_phase_seconds";
    const std::string help =
        "Wall-clock latency of one engine phase within a round.";
    return new FlatPhases{
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "flat"}, {"phase", "prepare"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "flat"}, {"phase", "decide"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "flat"}, {"phase", "apply"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "flat"}, {"phase", "scatter"}}),
    };
  }();
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
  gather_ = balancer_->gathers(g);
}

void Engine::add_observer(StepObserver& observer) {
  observers_.push_back(&observer);
}

void Engine::ensure_rows() {
  const std::size_t size =
      loads_.size() * static_cast<std::size_t>(balancing_degree());
  if (flows_.size() != size) flows_.assign(size, 0);
}

template <class Topo>
LoadScan Engine::apply_rows(const Topo& topo, NodeId first, NodeId last,
                            Load* next) const {
  const int d = topo.degree();
  const int d_plus = balancing_degree();
  const Load* rows = flows_.data();
  const bool negatives_ok = balancer_->allows_negative();
  Load lo = std::numeric_limits<Load>::max();
  Load hi = std::numeric_limits<Load>::min();
  std::uint64_t sum = 0;  // wraps, as LoadScan's Σ does
  auto cur = topo.cursor(first);
  for (NodeId v = first; v < last; ++v, cur.advance()) {
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

void Engine::step_rows(ThreadPool* pool) {
  ensure_rows();
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
    if (pool != nullptr && balancer_->parallel_decide_safe()) {
      pool->for_ranges(n, [&](std::int64_t first, std::int64_t last) {
        balancer_->decide_range(static_cast<NodeId>(first),
                                static_cast<NodeId>(last), loads_, time(),
                                sink);
      });
    } else {
      // Serial decide in ascending node order: balancers with a
      // sequential RNG stream consume it exactly as the serial path does.
      balancer_->decide_range(0, n, loads_, time(), sink);
    }
  }
  obs::PhaseScope phase(flat_phases().apply, "apply", "flat", "t", time() + 1);
  // The pull phase dispatches on the topology tag once per round: on
  // cycle/torus/hypercube every neighbor and rev_port is computed in
  // registers, the tables are never streamed. Each range folds the
  // min/max/Σ of the loads it pulled; the ranges merge once each.
  LoadScan round;
  std::mutex merge;  // guards round on pooled rounds
  with_topology(*g_, [&](const auto& topo) {
    if (pool != nullptr) {
      pool->for_ranges(n, [&](std::int64_t first, std::int64_t last) {
        const LoadScan range =
            apply_rows(topo, static_cast<NodeId>(first),
                       static_cast<NodeId>(last), next_.data());
        const std::lock_guard<std::mutex> lock(merge);
        round.merge(range);
      });
    } else {
      round = apply_rows(topo, 0, n, next_.data());
    }
  });
  for (StepObserver* o : observers_) {
    o->on_step(time() + 1, *g_, config_.self_loops, loads_, flows_, next_);
  }
  loads_.swap(next_);
  publish_round_stats(round);
}

void Engine::step_scatter(ThreadPool* pool) {
  const NodeId n = g_->num_nodes();
  obs::PhaseScope phase(flat_phases().scatter, "scatter", "flat", "t",
                        time() + 1);
  if (!gather_) std::fill(next_.begin(), next_.end(), Load{0});
  FlowSink round = FlowSink::scatter(*g_, config_.self_loops, next_.data());
  std::mutex merge;  // guards round's emit stats
  balancer_->prepare_round(loads_, time(), round);
  // Each range decides into a sink of its own over the shared next-load
  // buffer: a gather writes only its range's slots, so pooled ranges
  // never share a write, and their emit stats merge once per range.
  const auto decide = [&](std::int64_t first, std::int64_t last) {
    FlowSink sink = FlowSink::scatter(*g_, config_.self_loops, next_.data());
    balancer_->decide_range(static_cast<NodeId>(first),
                            static_cast<NodeId>(last), loads_, time(), sink);
    const std::lock_guard<std::mutex> lock(merge);
    round.merge_emit_stats(sink.emit_stats(), sink.emit_covered());
  };
  if (pool != nullptr) {
    pool->for_ranges(n, decide);
  } else {
    decide(0, n);
  }
  if (gather_) {
    // Every slot was stored once with its final value and the min, max
    // and Σ rode the emit sweep. A slot left unwritten would hold the
    // loads of two rounds ago, so full coverage is required, not hoped
    // for.
    DLB_REQUIRE(round.emit_covered() == n,
                "gather kernel did not write every next-load slot");
    publish_round_stats(round.emit_stats());
  }
  // A multi-touch round publishes nothing: the ledger scans the loads.
  loads_.swap(next_);
}

void Engine::do_step() {
  if (observers_.empty()) {
    step_scatter(nullptr);
  } else {
    step_rows(nullptr);
  }
}

void Engine::do_step_parallel(ThreadPool& pool) {
  // A gather with disjoint-range-safe decides runs its ranges straight
  // into the next-load buffer; rows are for observers and for kernels
  // that add into shared slots (multi-touch) or decide serially.
  if (observers_.empty() && gather_ && balancer_->parallel_decide_safe()) {
    step_scatter(&pool);
  } else {
    step_rows(&pool);
  }
}

}  // namespace dlb
