#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "dynamics/workload.hpp"
#include "obs/engine_telemetry.hpp"
#include "obs/trace.hpp"
#include "shard/framing.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Phase-latency histograms of the sharded engine (leaked; see
/// MetricsRegistry::instance).
struct ShardPhases {
  obs::Histogram& prepare;
  obs::Histogram& decide;
  obs::Histogram& drain;
};

ShardPhases& shard_phases() {
  static ShardPhases* p = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string name = "dlb_engine_phase_seconds";
    const std::string help =
        "Wall-clock latency of one engine phase within a round.";
    return new ShardPhases{
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "prepare"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "decide"}}),
        reg.histogram(name, help, obs::phase_seconds_bounds(),
                      {{"engine", "sharded"}, {"phase", "drain"}}),
    };
  }();
  return *p;
}

/// Frame-protocol counters (leaked; registered on first use). The error
/// family is labeled by detection kind so a lossy transport's weather is
/// legible from the exposition alone.
struct ShardProtocol {
  obs::Counter& frames_posted;
  obs::Counter& frames_drained;
  obs::Counter& frames_reposted;
  obs::Counter& retries;
  obs::Counter& err_header;
  obs::Counter& err_truncated;
  obs::Counter& err_payload;
  obs::Counter& err_stale;
  obs::Counter& err_duplicate;
  obs::Counter& err_unexpected;
};

ShardProtocol& shard_protocol() {
  static ShardProtocol* p = [] {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string err = "dlb_shard_frame_errors_total";
    const std::string err_help =
        "Damaged or misdelivered channel frames detected at drain time, "
        "by kind.";
    return new ShardProtocol{
        reg.counter("dlb_shard_frames_posted_total",
                    "Channel frames posted, including retry re-posts."),
        reg.counter("dlb_shard_frames_drained_total",
                    "Valid current-round frames accepted at drain time."),
        reg.counter("dlb_shard_frames_reposted_total",
                    "Frames re-posted to fill an incomplete stream."),
        reg.counter("dlb_shard_retries_total",
                    "Exchange retry sweeps (each covers every incomplete "
                    "stream of the round)."),
        reg.counter(err, err_help, {{"kind", "header"}}),
        reg.counter(err, err_help, {{"kind", "truncated"}}),
        reg.counter(err, err_help, {{"kind", "payload"}}),
        reg.counter(err, err_help, {{"kind", "stale"}}),
        reg.counter(err, err_help, {{"kind", "duplicate"}}),
        reg.counter(err, err_help, {{"kind", "unexpected"}}),
    };
  }();
  return *p;
}

}  // namespace

ShardedEngine::ShardedEngine(const Graph& g, ShardedEngineConfig config,
                             Balancer& balancer, const LoadVector& initial,
                             int shards, ShardChannel* channel)
    : g_(&g), config_(config), balancer_(&balancer),
      part_(g.num_nodes(), shards) {
  DLB_REQUIRE(config_.self_loops >= 0, "self_loops must be non-negative");
  DLB_REQUIRE(config_.fault.max_retries >= 0,
              "sharded engine: negative retry budget");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  ledger_.adopt(initial);
  if (channel != nullptr) {
    DLB_REQUIRE(channel->shard_count() == part_.shards(),
                "sharded engine: channel endpoint count != shard count");
    channel_ = channel;
  } else {
    owned_channel_ = std::make_unique<InProcessShardChannel>(part_.shards());
    channel_ = owned_channel_.get();
  }
  lossless_ = channel_->lossless();

  balancer_->reset(g, config_.self_loops);
  gather_ = balancer_->gathers(g);

  const std::size_t k = static_cast<std::size_t>(part_.shards());
  shards_.resize(k);
  dead_.assign(k, 0);
  done_.assign(k, 0);
  loads_ = initial;
  next_.assign(initial.size(), 0);
  for (int s = 0; s < part_.shards(); ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.begin = part_.begin(s);
    sh.size = part_.size(s);
    const auto at = static_cast<std::size_t>(sh.begin);
    const auto len = static_cast<std::size_t>(sh.size);
    sh.loads = std::span<Load>(loads_).subspan(at, len);
    sh.next = std::span<Load>(next_).subspan(at, len);
    sh.inbound.resize(k);
    sh.sent_frames.resize(k);
  }
  build_plan();

  // Per-shard channel byte counters, registered up front (registration
  // is one mutex pass at construction; the per-post inc() is a no-op
  // branch until an exporter arms the registry).
  for (int s = 0; s < part_.shards(); ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const obs::Labels labels{{"shard", std::to_string(s)}};
    sh.bytes_posted = &obs::MetricsRegistry::instance().counter(
        "dlb_shard_channel_bytes_posted_total",
        "Bytes this shard posted into the cross-shard channel (framed "
        "flows over the edge cut).",
        labels);
    sh.bytes_drained = &obs::MetricsRegistry::instance().counter(
        "dlb_shard_channel_bytes_drained_total",
        "Bytes this shard drained from the cross-shard channel.", labels);
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::build_plan() {
  // The edge cut, computed once: maximal runs of nodes with no cut edge
  // (on structured graphs, everything but the slice's outer rows) are
  // decided by the balancer's own kernel; the rest are boundary nodes.
  // The cut also fixes the frame roster and layout: shard s owes shard o
  // exactly one flow frame per round iff any s-owned node has a neighbor
  // owned by o. Its payload is one Load per such edge, in edge-cut order
  // (ascending sender node, then port); the receiver knows the edges'
  // heads from the same cut, so no node id crosses the wire, and a lost
  // or damaged frame is never mistaken for a quiet edge.
  const int d = g_->degree();
  const std::size_t k = static_cast<std::size_t>(part_.shards());
  const std::size_t d_plus =
      static_cast<std::size_t>(d + config_.self_loops);
  with_topology(*g_, [&](const auto& topo) {
    for (int s = 0; s < part_.shards(); ++s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      sh.flow_out.resize(k);
      sh.row.resize(d_plus);
      for (NodeId u = sh.begin; u < sh.begin + sh.size; ++u) {
        bool cut = false;
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(u, p);
          const int o = part_.owner(v);
          if (o == s) continue;
          cut = true;
          auto& out = sh.flow_out[static_cast<std::size_t>(o)];
          sh.cuts.push_back({o, out.size(), 0});
          out.resize(out.size() + sizeof(Load));
          shards_[static_cast<std::size_t>(o)]
              .inbound[static_cast<std::size_t>(s)]
              .heads.push_back(v);
        }
        if (cut) {
          if (gather_) sh.boundary.push_back(u);
          continue;
        }
        ++sh.interior_nodes;
        if (!sh.interior.empty() && sh.interior.back().second == u) {
          ++sh.interior.back().second;
        } else {
          sh.interior.emplace_back(u, u + 1);
        }
      }
      if (!gather_) continue;
      // A gather's boundary node pulls its same-shard terms from the
      // decisions of its same-shard neighbors and stages its own cut
      // flows. The round works out each of those nodes' decision once,
      // into one row of `rows`; the plan records where in `rows` each
      // boundary node finds its own row, each same-shard term and each
      // of its cut flows.
      std::vector<NodeId> src;
      const auto same_shard = [&](NodeId v) { return part_.owner(v) == s; };
      for (const NodeId b : sh.boundary) {
        src.push_back(b);
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(b, p);
          if (same_shard(v)) src.push_back(v);
        }
      }
      std::sort(src.begin(), src.end());
      src.erase(std::unique(src.begin(), src.end()), src.end());
      const auto row_of = [&](NodeId v) {
        return static_cast<std::int64_t>(
                   std::lower_bound(src.begin(), src.end(), v) - src.begin()) *
               static_cast<std::int64_t>(d_plus);
      };
      auto cut = sh.cuts.begin();
      for (const NodeId b : sh.boundary) {
        const std::int64_t own = row_of(b);
        sh.pulls.push_back(own);
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(b, p);
          if (same_shard(v)) {
            sh.pulls.push_back(row_of(v) + topo.rev_port(b, p));
          } else {
            sh.pulls.push_back(-1);
            (cut++)->flow = own + p;
          }
        }
      }
      sh.rows.resize(src.size() * d_plus);
      for (const NodeId v : src) {
        if (!sh.sources.empty() && sh.sources.back().second == v) {
          ++sh.sources.back().second;
        } else {
          sh.sources.emplace_back(v, v + 1);
        }
      }
    }
  });
}

template <class Body>
void ShardedEngine::for_shards(bool parallel_ok, Body&& body) {
  const int k = part_.shards();
  if (parallel_ok && pool_ != nullptr && pool_->parallelism() > 1 && k > 1) {
    pool_->for_ranges(k, [&](std::int64_t first, std::int64_t last) {
      for (std::int64_t s = first; s < last; ++s) body(static_cast<int>(s));
    });
  } else {
    for (int s = 0; s < k; ++s) body(s);
  }
}

Load ShardedEngine::load_of(NodeId u) const {
  DLB_REQUIRE(u >= 0 && u < part_.num_nodes(), "load_of: node out of range");
  return loads_[static_cast<std::size_t>(u)];
}

void ShardedEngine::apply_workload() {
  if (workload_ == nullptr) return;
  WorkloadProcess& wl = *workload_;
  const Step t = time();
  ledger_.apply_workload(
      wl, "sharded", pool_, part_.num_nodes(),
      [&] { return std::span<const Load>(loads_); },
      [&](NodeId u, Load d, WorkloadTally& tally) {
        tally.apply(u, loads_[static_cast<std::size_t>(u)], d);
      },
      [&](WorkloadTally& tally) {
        // Shards are the chunks: per-shard tallies merged in shard order.
        for_shards(wl.parallel_generate_safe(), [&](int s) {
          Shard& sh = shards_[static_cast<std::size_t>(s)];
          WorkloadTally part;
          part.apply_filled(wl, t, sh.begin, sh.loads);
          sh.tally = part;
        });
        for (const Shard& sh : shards_) tally.merge(sh.tally);
      });
}

void ShardedEngine::post_frame(int from, int to,
                               std::span<const std::byte> payload) {
  Shard& sh = shards_[static_cast<std::size_t>(from)];
  sh.frame_scratch.clear();
  append_frame(sh.frame_scratch, static_cast<std::uint8_t>(ShardTag::kFlows),
               from, time() + 1, /*seq=*/0, /*total=*/1, payload);
  channel_->post(from, to, ShardTag::kFlows,
                 std::span<const std::byte>(sh.frame_scratch.data(),
                                            sh.frame_scratch.size()));
  sh.bytes_posted->inc(sh.frame_scratch.size());
  shard_protocol().frames_posted.inc();
  if (!lossless_) {
    // Retention for selective re-post: the retry loop repeats exactly
    // these bytes, so a re-posted frame is indistinguishable from the
    // original on the wire.
    sh.sent_frames[static_cast<std::size_t>(to)] = sh.frame_scratch;
  }
}

bool ShardedEngine::inbound_complete(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  for (const InboundStream& st : sh.inbound) {
    if (!st.heads.empty() && !st.seen) return false;
  }
  return true;
}

void ShardedEngine::drain_frames(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  ShardProtocol& proto = shard_protocol();
  const std::int64_t round = time() + 1;
  const int k = part_.shards();
  channel_->drain(
      s, ShardTag::kFlows, [&](int from, std::span<const std::byte> bytes) {
        sh.bytes_drained->inc(bytes.size());
        std::size_t off = 0;
        while (off < bytes.size()) {
          FrameView frame;
          const FrameStatus status = decode_frame(bytes, off, frame);
          if (status == FrameStatus::kBadHeader) {
            // The rest of this delivery cannot be located; the retry
            // sweep re-posts whatever it carried.
            proto.err_header.inc();
            break;
          }
          if (status == FrameStatus::kTruncated) {
            proto.err_truncated.inc();
            break;
          }
          if (status == FrameStatus::kBadPayload) {
            proto.err_payload.inc();
            continue;
          }
          if (frame.round != round) {
            // A frame delayed across the round barrier: its round's
            // retry already re-posted it, so it is pure duplicate now.
            proto.err_stale.inc();
            continue;
          }
          if (frame.tag != static_cast<std::uint8_t>(ShardTag::kFlows) ||
              frame.from != from || frame.from < 0 || frame.from >= k) {
            proto.err_unexpected.inc();
            continue;
          }
          InboundStream& stream =
              sh.inbound[static_cast<std::size_t>(frame.from)];
          if (stream.heads.empty() || frame.seq != 0 || frame.total != 1) {
            proto.err_unexpected.inc();
            continue;
          }
          if (stream.seen) {
            proto.err_duplicate.inc();
            continue;
          }
          stream.seen = true;
          stream.payload.assign(frame.payload.begin(), frame.payload.end());
          proto.frames_drained.inc();
        }
      });
}

void ShardedEngine::collect_frames() {
  ShardProtocol& proto = shard_protocol();
  const int k = part_.shards();
  const auto missing = [](const InboundStream& st) {
    return !st.heads.empty() && !st.seen;
  };
  for (int attempt = 0;; ++attempt) {
    for_shards(true, [&](int s) { drain_frames(s); });
    int missing_to = -1;
    int missing_from = -1;
    for (int to = 0; to < k && missing_to < 0; ++to) {
      const Shard& rcv = shards_[static_cast<std::size_t>(to)];
      for (int from = 0; from < k; ++from) {
        if (missing(rcv.inbound[static_cast<std::size_t>(from)])) {
          missing_to = to;
          missing_from = from;
          break;
        }
      }
    }
    if (missing_to < 0) return;
    DLB_REQUIRE(!lossless_,
                "sharded engine: incomplete frame stream on a lossless "
                "channel (protocol bug, not transport weather)");
    if (attempt >= config_.fault.max_retries) {
      throw shard_fault_error(
          "sharded engine: frame stream " + std::to_string(missing_from) +
          " -> " + std::to_string(missing_to) + " (round " +
          std::to_string(time() + 1) + ") still incomplete after " +
          std::to_string(attempt) + " re-post attempt(s) — sender lost?");
    }
    proto.retries.inc();
    // Re-post the retained frame of every incomplete stream; duplicates
    // from crossed retries are deduplicated by the seen flag.
    for (int to = 0; to < k; ++to) {
      const Shard& rcv = shards_[static_cast<std::size_t>(to)];
      for (int from = 0; from < k; ++from) {
        if (!missing(rcv.inbound[static_cast<std::size_t>(from)])) continue;
        Shard& snd = shards_[static_cast<std::size_t>(from)];
        const auto& retained = snd.sent_frames[static_cast<std::size_t>(to)];
        DLB_REQUIRE(!retained.empty(),
                    "sharded engine: no retained frame to re-post");
        channel_->post(from, to, ShardTag::kFlows,
                       std::span<const std::byte>(retained.data(),
                                                  retained.size()));
        snd.bytes_posted->inc(retained.size());
        proto.frames_posted.inc();
        proto.frames_reposted.inc();
      }
    }
  }
}

void ShardedEngine::apply_flow_payload(Shard& sh, const InboundStream& st) {
  DLB_REQUIRE(st.payload.size() == st.heads.size() * sizeof(Load),
              "flow stream: payload does not match the edge cut");
  const std::byte* at = st.payload.data();
  for (const NodeId v : st.heads) {
    Load f;
    std::memcpy(&f, at, sizeof(Load));
    at += sizeof(Load);
    sh.next[static_cast<std::size_t>(v - sh.begin)] += f;
  }
}

void ShardedEngine::finish_shard(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  // Ascending sender order — fixed regardless of arrival order, which is
  // what keeps a faulted round byte-identical to a clean one.
  for (const InboundStream& st : sh.inbound) apply_flow_payload(sh, st);
  // The drained cut flows completed a gather's boundary slots: fold them
  // into the interior emit, so the round's statistics cover every slot.
  for (const NodeId b : sh.boundary) {
    const Load x = next_[static_cast<std::size_t>(b)];
    sh.scan.merge({x, x, x});
  }
}

void ShardedEngine::decide_scatter(int s, Shard& sh, Step t) {
  // In ascending node order (a sequential RNG stream sees the flat
  // order): each interior run is one decide_range into the whole next
  // buffer — by the cut table every add lands in this shard's slice.
  // Boundary nodes take decide(), with flows routed by owner: local ones
  // add into the zero-filled slice, cross-shard ones are staged per
  // destination.
  Balancer& bal = *balancer_;
  std::fill(sh.next.begin(), sh.next.end(), Load{0});
  const int d = g_->degree();
  const int d_plus = d + config_.self_loops;
  const bool negatives_ok = bal.allows_negative();
  const std::span<Load> row(sh.row);
  Load* const next = next_.data();
  FlowSink sink = FlowSink::scatter(*g_, config_.self_loops, next);
  const auto* cut = sh.cuts.data();  // boundary nodes meet them in order
  with_topology(*g_, [&](const auto& topo) {
    const auto route = [&](NodeId u) {
      std::fill(row.begin(), row.end(), 0);
      const Load x = loads_[static_cast<std::size_t>(u)];
      bal.decide(u, x, t, row);
      Load sent = 0;
      for (int p = 0; p < d_plus; ++p) {
        DLB_ASSERT(negatives_ok || row[static_cast<std::size_t>(p)] >= 0,
                   "balancer produced a negative flow");
        sent += row[static_cast<std::size_t>(p)];
      }
      const Load remainder = x - sent;
      DLB_REQUIRE(negatives_ok || remainder >= 0,
                  "balancer sent more tokens than available");
      Load kept = remainder;
      for (int p = d; p < d_plus; ++p) {
        kept += row[static_cast<std::size_t>(p)];
      }
      next[u] += kept;
      for (int p = 0; p < d; ++p) {
        const NodeId v = topo.neighbor(u, p);
        const Load f = row[static_cast<std::size_t>(p)];
        const int o = part_.owner(v);
        if (o == s) {
          next[v] += f;
        } else {
          DLB_ASSERT(cut->to == o, "cut edges out of plan order");
          std::memcpy(sh.flow_out[static_cast<std::size_t>(o)].data() +
                          (cut++)->at,
                      &f, sizeof(Load));
        }
      }
    };
    NodeId u = sh.begin;
    for (const auto& [first, last] : sh.interior) {
      for (; u < first; ++u) route(u);
      bal.decide_range(first, last, loads_, t, sink);
      u = last;
    }
    for (; u < sh.begin + sh.size; ++u) route(u);
  });
}

void ShardedEngine::decide_gather(Shard& sh, Step t) {
  // A gather stores whole slots, so the slice is not zero-filled. Each
  // interior run is one decide_range, which stores every slot of the run
  // and folds min, max and Σ into its emit. Each boundary node b then
  // stores kept(b) plus the flows its same-shard neighbors send it —
  // their decision at the reverse port, a pure function of their loads,
  // worked out once per round by a row-mode decide_range over each run
  // of such nodes. b adds nothing into same-shard slots (their gathers
  // pulled b's load already); its cut flows are staged for the channel.
  const int d = g_->degree();
  const std::size_t d_plus =
      static_cast<std::size_t>(d + config_.self_loops);
  const std::span<Load> rows(sh.rows);
  Load* run_rows = rows.data();
  for (const auto& [first, last] : sh.sources) {
    FlowSink run(*g_, config_.self_loops, run_rows, first);
    balancer_->decide_range(first, last, loads_, t, run);
    run_rows += static_cast<std::size_t>(last - first) * d_plus;
  }
  Load* const next = next_.data();
  FlowSink sink = FlowSink::scatter(*g_, config_.self_loops, next);
  for (const auto& [first, last] : sh.interior) {
    balancer_->decide_range(first, last, loads_, t, sink);
  }
  DLB_REQUIRE(sink.emit_covered() == sh.interior_nodes,
              "gather kernel did not cover every interior slot");
  sh.scan = sink.emit_stats();
  const std::int64_t* pull = sh.pulls.data();
  for (const NodeId b : sh.boundary) {
    const Load* own = rows.data() + pull[0];
    Load acc = loads_[static_cast<std::size_t>(b)];
    for (int p = 0; p < d; ++p) acc -= own[p];
    for (int p = 1; p <= d; ++p) {
      if (pull[p] >= 0) acc += rows[static_cast<std::size_t>(pull[p])];
    }
    next[b] = acc;
    pull += 1 + d;
  }
  for (const auto& c : sh.cuts) {
    std::memcpy(sh.flow_out[static_cast<std::size_t>(c.to)].data() + c.at,
                rows.data() + c.flow, sizeof(Load));
  }
}

void ShardedEngine::decide_shard(int s, Step t) {
  obs::TraceSpan span("decide", "shard", "shard", s);
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  for (InboundStream& st : sh.inbound) st.seen = false;
  if (gather_) {
    decide_gather(sh, t);
  } else {
    decide_scatter(s, sh, t);
  }
  // One frame per rostered destination, always — a frame is expected
  // every round, which is what makes loss detectable without timeouts.
  for (int o = 0; o < part_.shards(); ++o) {
    const std::vector<std::byte>& buf =
        sh.flow_out[static_cast<std::size_t>(o)];
    if (buf.empty()) continue;
    post_frame(s, o, std::span<const std::byte>(buf.data(), buf.size()));
  }
}

void ShardedEngine::drain_flows() {
  // Drain/validate/apply in one parallel pass: completeness is a
  // per-shard property, so a shard whose roster filled on the first
  // drain finishes without another pool barrier. Only bytes that passed
  // both checksums and the (round, seq, total) checks are ever applied;
  // a shard with missing frames (lossy transport weather) drops into the
  // serial re-post loop below.
  std::fill(done_.begin(), done_.end(), 0);
  std::atomic<bool> all_complete{true};
  for_shards(true, [&](int s) {
    drain_frames(s);
    if (inbound_complete(s)) {
      finish_shard(s);
      done_[static_cast<std::size_t>(s)] = 1;
    } else {
      all_complete.store(false, std::memory_order_relaxed);
    }
  });
  if (!all_complete.load(std::memory_order_relaxed)) {
    collect_frames();
    for_shards(true, [&](int s) {
      if (!done_[static_cast<std::size_t>(s)]) finish_shard(s);
    });
  }
  // All of the round's stores and adds (local + drained) have landed.
  loads_.swap(next_);
  for (Shard& sh : shards_) std::swap(sh.loads, sh.next);
}

void ShardedEngine::step() {
  DLB_REQUIRE(dead_count_ == 0,
              "sharded engine: cannot step with a dead shard — the "
              "supervisor must recover it first");
  const Step t = time();
  const std::uint64_t obs_t0 = ledger_.round_begin();
  obs::TraceSpan round_span("round", "sharded", "t", t + 1);
  // Round barrier notification: deferred transport state (a fault
  // injector's delayed frames) surfaces now, before any post of this
  // round.
  channel_->begin_round(t + 1);
  apply_workload();
  {
    obs::PhaseScope phase(shard_phases().prepare, "prepare", "sharded", "t",
                          t + 1);
    // Serial once-per-round hook, before any shard decides, as on the
    // flat engine. The sink exists only to convey graph/mode (no
    // built-in prepare_round writes flows).
    FlowSink sink = FlowSink::scatter(*g_, config_.self_loops, next_.data());
    balancer_->prepare_round(loads_, t, sink);
  }
  {
    // Serial shard order when the balancer is not parallel-safe keeps
    // e.g. a sequential RNG stream in ascending node order — the same
    // trajectory as the flat serial engine.
    obs::PhaseScope phase(shard_phases().decide, "decide", "sharded", "t",
                          t + 1);
    for_shards(balancer_->parallel_decide_safe(),
               [&](int s) { decide_shard(s, t); });
  }
  {
    obs::PhaseScope phase(shard_phases().drain, "drain", "sharded", "t",
                          t + 1);
    drain_flows();
  }
  if (gather_) {
    // A gather round's emits and boundary folds cover every slot: they
    // are the round's statistics and its conservation audit. A
    // multi-touch round publishes nothing and end_round scans the slices.
    LoadScan round;
    for (const Shard& sh : shards_) round.merge(sh.scan);
    ledger_.publish_round_stats(round);
  }
  ledger_.end_round("sharded", [&] {
    for_shards(true, [&](int s) {
      Shard& sh = shards_[static_cast<std::size_t>(s)];
      sh.scan = LoadScan{};
      sh.scan.add(sh.loads);
    });
    LoadScan scan;
    for (const Shard& sh : shards_) scan.merge(sh.scan);
    return scan;
  });
  ledger_.round_end(obs_t0, "sharded");
}

void ShardedEngine::run(Step steps) {
  DLB_REQUIRE(steps >= 0, "run: negative step count");
  for (Step i = 0; i < steps; ++i) step();
}

void ShardedEngine::kill_shard(int s) {
  DLB_REQUIRE(s >= 0 && s < part_.shards(), "kill_shard: shard out of range");
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  DLB_REQUIRE(!dead_[static_cast<std::size_t>(s)],
              "kill_shard: shard is already dead");
  // SIGKILL semantics: the slice is *gone*, not paused — anything short
  // of a checkpoint restore must not be able to resurrect it.
  std::fill(sh.loads.begin(), sh.loads.end(), 0);
  std::fill(sh.next.begin(), sh.next.end(), 0);
  for (auto& buf : sh.flow_out) {
    std::fill(buf.begin(), buf.end(), std::byte{0});
  }
  for (auto& frame : sh.sent_frames) frame.clear();
  dead_[static_cast<std::size_t>(s)] = 1;
  ++dead_count_;
}

bool ShardedEngine::shard_dead(int s) const {
  DLB_REQUIRE(s >= 0 && s < part_.shards(), "shard_dead: shard out of range");
  return dead_[static_cast<std::size_t>(s)] != 0;
}

std::size_t ShardedEngine::shard_resident_bytes(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  return (sh.loads.size() + sh.next.size()) * sizeof(Load);
}

std::size_t ShardedEngine::shard_halo_bytes(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  std::size_t bytes = 0;
  for (const auto& buf : sh.flow_out) bytes += buf.size();
  return bytes;
}

std::uint64_t ShardedEngine::shard_cut_edges(int s) const {
  return shards_[static_cast<std::size_t>(s)].cuts.size();
}

NodeId ShardedEngine::shard_interior_nodes(int s) const {
  return shards_[static_cast<std::size_t>(s)].interior_nodes;
}

void ShardedEngine::save_core_state(StateWriter& w) const {
  ledger_.save_core(w, loads_);
}

void ShardedEngine::load_core_state(StateReader& r) {
  const RoundLedger::Core core = RoundLedger::read_core(
      r, static_cast<std::size_t>(part_.num_nodes()));
  std::copy(core.loads.begin(), core.loads.end(), loads_.begin());
  ledger_.restore(core.ledger);
  // A full-state restore redefines every slice — any killed shard is
  // alive again (this is the supervisor's rollback recovery).
  std::fill(dead_.begin(), dead_.end(), 0);
  dead_count_ = 0;
}

}  // namespace dlb
