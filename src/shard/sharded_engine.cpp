#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
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
  static ShardPhases* p = new ShardPhases{obs::phase("sharded", "prepare"),
                                          obs::phase("sharded", "decide"),
                                          obs::phase("sharded", "drain")};
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
    : g_(&g), config_(config), balancer_(&balancer) {
  DLB_REQUIRE(config_.self_loops >= 0, "self_loops must be non-negative");
  DLB_REQUIRE(config_.fault.max_retries >= 0,
              "sharded engine: negative retry budget");
  DLB_REQUIRE(initial.size() == static_cast<std::size_t>(g.num_nodes()),
              "initial load vector has wrong size");
  balancer_->reset(g, config_.self_loops);
  plan_.emplace(g, config_.self_loops, balancer_->gathers(g), shards);
  ledger_.adopt(initial);
  if (channel != nullptr) {
    DLB_REQUIRE(channel->shard_count() == shards,
                "sharded engine: channel endpoint count != shard count");
    channel_ = channel;
  } else {
    owned_channel_ = std::make_unique<InProcessShardChannel>(shards);
    channel_ = owned_channel_.get();
  }
  lossless_ = channel_->lossless();

  const auto k = static_cast<std::size_t>(shards);
  shards_.resize(k);
  dead_.assign(k, 0);
  done_.assign(k, 0);
  loads_ = initial;
  next_.assign(initial.size(), 0);
  for (int s = 0; s < shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const auto at = static_cast<std::size_t>(shard_begin(s));
    const auto len = static_cast<std::size_t>(shard_size(s));
    sh.loads = std::span<Load>(loads_).subspan(at, len);
    sh.next = std::span<Load>(next_).subspan(at, len);
    sh.inbound.resize(k);
    sh.sent_frames.resize(k);
    // Channel byte counters, registered up front (one mutex pass; the
    // per-post inc() is a no-op branch until an exporter arms the
    // registry).
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

Load ShardedEngine::load_of(NodeId u) const {
  DLB_REQUIRE(u >= 0 && u < plan_->partition().num_nodes(),
              "load_of: node out of range");
  return loads_[static_cast<std::size_t>(u)];
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
  for (int from = 0; from < shards(); ++from) {
    if (missing(s, from)) return false;
  }
  return true;
}

void ShardedEngine::drain_frames(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  ShardProtocol& proto = shard_protocol();
  const std::int64_t round = time() + 1;
  const int k = shards();
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
          if (!expects(s, frame.from) || frame.seq != 0 || frame.total != 1) {
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
  const int k = shards();
  std::vector<std::pair<int, int>> gaps;  // (to, from) still incomplete
  for (int attempt = 0;; ++attempt) {
    for_shards(true, [&](int s) { drain_frames(s); });
    gaps.clear();
    for (int to = 0; to < k; ++to) {
      for (int from = 0; from < k; ++from) {
        if (missing(to, from)) gaps.emplace_back(to, from);
      }
    }
    if (gaps.empty()) return;
    DLB_REQUIRE(!lossless_,
                "sharded engine: incomplete frame stream on a lossless "
                "channel (protocol bug, not transport weather)");
    if (attempt >= config_.fault.max_retries) {
      throw shard_fault_error(
          "sharded engine: frame stream " + std::to_string(gaps[0].second) +
          " -> " + std::to_string(gaps[0].first) + " (round " +
          std::to_string(time() + 1) + ") still incomplete after " +
          std::to_string(attempt) + " re-post attempt(s) — sender lost?");
    }
    proto.retries.inc();
    // Re-post the retained frame of every incomplete stream; duplicates
    // from crossed retries are deduplicated by the seen flag.
    for (const auto& [to, from] : gaps) {
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

void ShardedEngine::finish_shard(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  // Ascending sender order — fixed regardless of arrival order, which is
  // what keeps a faulted round byte-identical to a clean one. A sender
  // that owes no frame left its stream's payload empty.
  for (int from = 0; from < shards(); ++from) {
    plan_->receive(s, from, sh.inbound[static_cast<std::size_t>(from)].payload,
                   next_.data());
  }
  sh.scan = plan_->finish(s, next_.data());
}

void ShardedEngine::decide_shard(int s, Step t) {
  obs::TraceSpan span("decide", "shard", "shard", s);
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  for (InboundStream& st : sh.inbound) st.seen = false;
  plan_->decide(s, *balancer_, loads_, t, next_.data());
  // One frame per rostered destination, always — a frame is expected
  // every round, which is what makes loss detectable without timeouts.
  for (int o = 0; o < shards(); ++o) {
    const std::span<const Load> flows = plan_->staged(s, o);
    if (!flows.empty()) post_frame(s, o, std::as_bytes(flows));
  }
}

void ShardedEngine::drain_flows() {
  // Drain, validate and apply in one parallel pass: a shard whose roster
  // filled on the first drain finishes without another barrier. Only
  // frames that passed both checksums and the (round, seq, total) checks
  // are applied; missing frames drop into the serial re-post loop.
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
  if (workload_ != nullptr) {
    ledger_.apply_workload(*workload_, "sharded", pool_, loads_);
  }
  {
    obs::PhaseScope phase(shard_phases().prepare, "prepare", "sharded", "t",
                          t + 1);
    // Serial once-per-round hook, before any shard decides, as on the
    // flat engine.
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
  if (windowed()) {
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
  DLB_REQUIRE(s >= 0 && s < shards(), "kill_shard: shard out of range");
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  DLB_REQUIRE(!dead_[static_cast<std::size_t>(s)],
              "kill_shard: shard is already dead");
  // SIGKILL semantics: the slice is *gone*, not paused — anything short
  // of a checkpoint restore must not be able to resurrect it.
  std::fill(sh.loads.begin(), sh.loads.end(), 0);
  std::fill(sh.next.begin(), sh.next.end(), 0);
  for (auto& frame : sh.sent_frames) frame.clear();
  dead_[static_cast<std::size_t>(s)] = 1;
  ++dead_count_;
}

bool ShardedEngine::shard_dead(int s) const {
  DLB_REQUIRE(s >= 0 && s < shards(), "shard_dead: shard out of range");
  return dead_[static_cast<std::size_t>(s)] != 0;
}

std::size_t ShardedEngine::shard_resident_bytes(int s) const {
  const Shard& sh = shards_[static_cast<std::size_t>(s)];
  return (sh.loads.size() + sh.next.size()) * sizeof(Load);
}

void ShardedEngine::save_core_state(StateWriter& w) const {
  ledger_.save_core(w, loads_);
}

void ShardedEngine::load_core_state(StateReader& r) {
  const RoundLedger::Core core = RoundLedger::read_core(
      r, static_cast<std::size_t>(plan_->partition().num_nodes()));
  std::copy(core.loads.begin(), core.loads.end(), loads_.begin());
  ledger_.restore(core.ledger);
  // A full-state restore redefines every slice — any killed shard is
  // alive again (this is the supervisor's rollback recovery).
  std::fill(dead_.begin(), dead_.end(), 0);
  dead_count_ = 0;
}

}  // namespace dlb
