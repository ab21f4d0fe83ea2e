#include "service/admission.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics.hpp"
#include "util/assertions.hpp"
#include "util/thread_pool.hpp"

namespace dlb {

namespace {

/// Admission-control series (leaked; registered on first use).
struct AdmissionMetrics {
  obs::Gauge& backlog_entries;
  obs::Gauge& backlog_tokens;
};

AdmissionMetrics& admission_metrics() {
  static AdmissionMetrics* m = [] {
    auto& reg = obs::MetricsRegistry::instance();
    return new AdmissionMetrics{
        reg.gauge("dlb_admission_backlog_entries",
                  "Nodes with pending admissions after the last prepared "
                  "round."),
        reg.gauge("dlb_admission_backlog_tokens",
                  "Tokens waiting in the admission backlog after the last "
                  "prepared round."),
    };
  }();
  return *m;
}

/// Most blocks the per-node pass is cut into. The cut depends on n only,
/// never on the pool, which is what keeps the ring order pool-independent.
constexpr std::int64_t kMaxBlocks = 64;

/// Deltas the pass fetches per fill() call: 8 KiB on the stack.
constexpr std::size_t kChunk = 1024;

/// Marks a format-2 ring after the inner state. A format-1 blob has its
/// request count there, and count·12 bytes must fit the blob, so the
/// count is below 2^61; the tag ("ADMRING2", little-endian) is above it.
constexpr std::uint64_t kRingTag = 0x32474E49524D4441ULL;

}  // namespace

AdmissionQueue::AdmissionQueue(WorkloadProcess& inner, Params params)
    : inner_(&inner), params_(params) {
  DLB_REQUIRE(params_.round_cap >= 1, "AdmissionQueue: cap must be >= 1");
}

std::string AdmissionQueue::name() const {
  return "admit(cap=" + std::to_string(params_.round_cap) + "," +
         inner_->name() + ")";
}

void AdmissionQueue::reset(NodeId n, std::uint64_t seed) {
  inner_->reset(n, seed);
  n_ = n;
  const auto size = static_cast<std::size_t>(std::max<NodeId>(n, 0));
  pending_.assign(size, 0);
  ring_.assign(size, 0);
  ring_head_ = 0;
  ring_size_ = 0;
  backlog_total_ = 0;
  blocks_ = std::vector<Block>(static_cast<std::size_t>(
      std::min<std::int64_t>(static_cast<std::int64_t>(size), kMaxBlocks)));
  planned_.clear();
  round_delta_ = {};
  affected_.clear();
  dense_ = false;
  table_full_ = false;
  deferred_ = false;
}

std::vector<Load>& AdmissionQueue::table() {
  if (round_delta_.empty()) {
    round_delta_.assign(static_cast<std::size_t>(n_), 0);
  }
  return round_delta_;
}

void AdmissionQueue::prepare(Step t, std::span<const Load> loads) {
  prepare_round(t, loads);
  if (!deferred_) return;
  deferred_ = false;
  std::vector<Load>& out = table();
  table_full_ = true;
  auto sink = [&](WorkloadTally&, NodeId base, std::span<const Load> deltas,
                  std::span<const std::uint16_t>) {
    std::copy(deltas.begin(), deltas.end(),
              out.begin() + static_cast<std::ptrdiff_t>(base));
  };
  for (std::size_t b = 0; b < blocks_.size(); ++b) pass_block(t, b, sink);
  commit_blocks(t);
  drain([&](NodeId u, Load g) { out[static_cast<std::size_t>(u)] += g; });
  publish_backlog();
}

void AdmissionQueue::prepare_round(Step t, std::span<const Load> loads) {
  DLB_REQUIRE(n_ > 0, "AdmissionQueue: reset() must run before stepping");
  inner_->prepare(t, loads);
  if (const std::vector<NodeId>* sparse = inner_->affected_nodes()) {
    deferred_ = false;
    sparse_round(t, *sparse);
    return;
  }
  dense_ = true;
  deferred_ = true;
  plan_drain(t);
}

void AdmissionQueue::apply_dense(Step t, std::span<Load> loads,
                                 ThreadPool* pool, WorkloadTally& tally) {
  DLB_REQUIRE(deferred_,
              "AdmissionQueue: apply_dense() must follow prepare_round() on "
              "a dense round");
  deferred_ = false;
  auto sink = [&](WorkloadTally& part, NodeId base,
                  std::span<const Load> deltas,
                  std::span<const std::uint16_t> touched) {
    Load* const x = loads.data() + base;
    for (std::size_t k = 0; k < touched.size() && part.overflow_node < 0;
         ++k) {
      const std::size_t i = touched[k];
      part.apply(base + static_cast<NodeId>(i), x[i], deltas[i]);
    }
  };
  const auto blocks = static_cast<std::int64_t>(blocks_.size());
  const auto body = [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t b = first; b < last; ++b) {
      pass_block(t, static_cast<std::size_t>(b), sink);
    }
  };
  if (pool != nullptr && inner_->parallel_generate_safe()) {
    pool->for_ranges(blocks, body);
  } else {
    body(0, blocks);
  }
  commit_blocks(t);
  for (const Block& blk : blocks_) tally.merge(blk.tally);
  WorkloadTally granted;
  drain([&](NodeId u, Load g) {
    if (granted.overflow_node < 0) {
      granted.apply(u, loads[static_cast<std::size_t>(u)], g);
    }
  });
  tally.merge(granted);
  publish_backlog();
}

void AdmissionQueue::plan_drain(Step t) {
  planned_.clear();
  Load budget = params_.round_cap;
  for (std::size_t i = 0, slot = ring_head_; i < ring_size_ && budget > 0;
       ++i) {
    const NodeId u = ring_[slot];
    Load p = pending_[static_cast<std::size_t>(u)];
    const Load d = inner_->delta(u, t);
    // An overflowing counter stops the round in commit_blocks.
    if (d > 0 && __builtin_add_overflow(p, d, &p)) break;
    const Load granted = std::min(p, budget);
    planned_.push_back({u, granted});
    budget -= granted;
    if (++slot == ring_.size()) slot = 0;
  }
  // The pass meets them in node order; the drain needs only their count.
  std::sort(planned_.begin(), planned_.end(),
            [](const Grant& a, const Grant& b) { return a.node < b.node; });
}

template <class Sink>
void AdmissionQueue::pass_block(Step t, std::size_t b, Sink& sink) {
  const auto n = static_cast<std::int64_t>(n_);
  const auto count = static_cast<std::int64_t>(blocks_.size());
  const auto lo = static_cast<NodeId>(n * static_cast<std::int64_t>(b) / count);
  const auto hi =
      static_cast<NodeId>(n * static_cast<std::int64_t>(b + 1) / count);
  Block& blk = blocks_[b];
  blk.fresh.clear();
  WorkloadTally tally;  // a local, so the loads' stores cannot alias it
  Load arrived = 0;
  bool overflowed = false;
  // This block's planned grants, in node order.
  auto grant = std::lower_bound(
      planned_.begin(), planned_.end(), lo,
      [](const Grant& g, NodeId u) { return g.node < u; });
  std::array<Load, kChunk> deltas;
  std::array<std::uint16_t, kChunk> touched;  // offsets into the chunk
  for (NodeId base = lo; base < hi; base += static_cast<NodeId>(kChunk)) {
    const auto len = std::min(kChunk, static_cast<std::size_t>(hi - base));
    const std::span<Load> chunk(deltas.data(), len);
    inner_->fill(t, base, chunk);
    const auto grants_end = std::lower_bound(
        grant, planned_.end(), base + static_cast<NodeId>(len),
        [](const Grant& g, NodeId u) { return g.node < u; });
    // The entries to visit, in order: every nonzero delta, and every node
    // with a planned grant.
    std::size_t count = 0;
    for (std::size_t i = 0; i < len; ++i) {
      touched[count] = static_cast<std::uint16_t>(i);
      count += static_cast<std::size_t>(deltas[i] != 0);
    }
    for (auto g = grant; g != grants_end; ++g) {
      const auto i = static_cast<std::uint16_t>(g->node - base);
      if (deltas[i] != 0) continue;
      const auto at = std::lower_bound(touched.begin(),
                                       touched.begin() + count, i);
      std::copy_backward(at, touched.begin() + count,
                         touched.begin() + count + 1);
      *at = i;
      ++count;
    }
    // Arrivals wait in the queue; only the drain admits tokens.
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = touched[k];
      const Load d = deltas[i];
      if (d <= 0) continue;
      const NodeId u = base + static_cast<NodeId>(i);
      Load& p = pending_[static_cast<std::size_t>(u)];
      if (p == 0) blk.fresh.push_back(u);
      if (__builtin_add_overflow(p, d, &p) ||
          __builtin_add_overflow(arrived, d, &arrived)) {
        overflowed = true;
        break;
      }
      deltas[i] = 0;
    }
    if (overflowed) break;
    // A planned node's grant joins its consumption in one delta.
    for (; grant != grants_end; ++grant) {
      deltas[static_cast<std::size_t>(grant->node - base)] += grant->granted;
    }
    sink(tally, base, std::span<const Load>(chunk),
         std::span<const std::uint16_t>(touched.data(), count));
  }
  blk.arrived = arrived;
  blk.overflow = overflowed;
  blk.tally = tally;
}

void AdmissionQueue::commit_blocks(Step t) {
  const auto n = static_cast<std::int64_t>(n_);
  const auto count = static_cast<std::int64_t>(blocks_.size());
  Load total = backlog_total_;
  for (std::int64_t b = 0; b < count; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    Load next = 0;
    if (!blk.overflow && !__builtin_add_overflow(total, blk.arrived, &next)) {
      total = next;
      continue;
    }
    // Every counter is at most the total, so the running total overflows
    // no later than any counter does: this block holds the first node at
    // which it overflows. Deltas are pure in (u, t); replay them to find it.
    const std::int64_t hi = n * (b + 1) / count;
    for (std::int64_t i = n * b / count; i < hi; ++i) {
      const Load d = inner_->delta(static_cast<NodeId>(i), t);
      if (d > 0 && __builtin_add_overflow(total, d, &total)) {
        throw_overflow(static_cast<NodeId>(i), t);
      }
    }
    throw_overflow(static_cast<NodeId>(hi - 1), t);
  }
  backlog_total_ = total;
  for (const Block& blk : blocks_) {
    for (const NodeId u : blk.fresh) push_ring(u);
  }
}

void AdmissionQueue::sparse_round(Step t, const std::vector<NodeId>& nodes) {
  // Clear the table's last round: after a dense round through prepare()
  // every entry may be set, otherwise only the touched ones — O(touched),
  // not O(n). The fused pass leaves the table as it was.
  std::vector<Load>& out = table();
  if (table_full_) {
    std::fill(out.begin(), out.end(), 0);
  } else {
    for (NodeId u : affected_) out[static_cast<std::size_t>(u)] = 0;
  }
  affected_.clear();
  dense_ = false;
  table_full_ = false;
  planned_.clear();
  std::vector<NodeId> fresh;
  Load total = backlog_total_;
  for (const NodeId u : nodes) {
    DLB_REQUIRE(u >= 0 && u < n_, "workload affected node out of range");
    const Load d = inner_->delta(u, t);
    if (d < 0) {
      Load& slot = out[static_cast<std::size_t>(u)];
      if (slot == 0) affected_.push_back(u);
      slot += d;
    } else if (d > 0) {
      Load& p = pending_[static_cast<std::size_t>(u)];
      if (p == 0) fresh.push_back(u);
      if (__builtin_add_overflow(p, d, &p) ||
          __builtin_add_overflow(total, d, &total)) {
        throw_overflow(u, t);
      }
    }
  }
  backlog_total_ = total;
  std::sort(fresh.begin(), fresh.end());
  for (const NodeId u : fresh) push_ring(u);
  drain([&](NodeId u, Load g) {
    Load& slot = out[static_cast<std::size_t>(u)];
    if (slot == 0) affected_.push_back(u);
    slot += g;
  });
  publish_backlog();
}

template <class GrantFn>
void AdmissionQueue::drain(GrantFn&& grant) {
  Load budget = params_.round_cap;
  std::size_t planned = planned_.size();
  while (budget > 0 && ring_size_ > 0) {
    const NodeId u = ring_[ring_head_];
    Load& p = pending_[static_cast<std::size_t>(u)];
    const Load granted = std::min(p, budget);
    if (planned > 0) {
      --planned;
    } else {
      grant(u, granted);
    }
    p -= granted;
    budget -= granted;
    backlog_total_ -= granted;
    if (p == 0) {
      ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
      --ring_size_;
    }
  }
}

void AdmissionQueue::push_ring(NodeId u) {
  std::size_t slot = ring_head_ + ring_size_;
  if (slot >= ring_.size()) slot -= ring_.size();
  ring_[slot] = u;
  ++ring_size_;
}

void AdmissionQueue::publish_backlog() const {
  if (!obs::metrics_armed()) return;
  AdmissionMetrics& m = admission_metrics();
  m.backlog_entries.set(static_cast<std::int64_t>(ring_size_));
  m.backlog_tokens.set(backlog_total_);
}

void AdmissionQueue::throw_overflow(NodeId u, Step t) const {
  throw invariant_error("AdmissionQueue: pending tokens overflow the int64 "
                        "ledger at node " +
                        std::to_string(u) + " in round " + std::to_string(t));
}

Load AdmissionQueue::delta(NodeId u, Step /*t*/) {
  DLB_ASSERT(static_cast<std::size_t>(u) < round_delta_.size(),
             "AdmissionQueue: delta() before prepare()");
  return round_delta_[static_cast<std::size_t>(u)];
}

void AdmissionQueue::fill(Step /*t*/, NodeId first, std::span<Load> out) {
  DLB_ASSERT(static_cast<std::size_t>(first) + out.size() <=
                 round_delta_.size(),
             "AdmissionQueue: fill() before prepare()");
  std::copy_n(round_delta_.begin() + first, out.size(), out.begin());
}

const std::vector<NodeId>* AdmissionQueue::affected_nodes() const {
  return dense_ ? nullptr : &affected_;
}

std::vector<NodeId> AdmissionQueue::pending_nodes() const {
  std::vector<NodeId> out;
  out.reserve(ring_size_);
  for (std::size_t i = 0, slot = ring_head_; i < ring_size_; ++i) {
    out.push_back(ring_[slot]);
    if (++slot == ring_.size()) slot = 0;
  }
  return out;
}

void AdmissionQueue::save_state(StateWriter& w) const {
  inner_->save_state(w);
  w.reserve(16 + 12 * ring_size_);
  w.u64(kRingTag);
  w.u64(ring_size_);
  // The ring in FIFO order, (node, amount) per entry, into one extent.
  std::uint8_t* out = w.extend(12 * ring_size_);
  for (std::size_t i = 0, slot = ring_head_; i < ring_size_; ++i) {
    const NodeId u = ring_[slot];
    store_le(out, static_cast<std::uint32_t>(u));
    store_le(out + 4,
             static_cast<std::uint64_t>(pending_[static_cast<std::size_t>(u)]));
    out += 12;
    if (++slot == ring_.size()) slot = 0;
  }
}

void AdmissionQueue::load_state(StateReader& r) {
  inner_->load_state(r);
  // Format 2: tag, then the ring. Format 1: the request count, then one
  // (node, amount) entry per queued request, nodes possibly repeated.
  const std::uint64_t word = r.u64();
  const bool ring_format = word == kRingTag;
  const std::uint64_t count = ring_format ? r.u64() : word;
  if (count > r.remaining() / 12) {  // 4 bytes node + 8 bytes amount each
    throw serial_error("admission queue state: truncated backlog");
  }
  const std::uint8_t* in = r.bytes(12 * count).data();
  // One pass over the extent into fresh state; nothing is assigned until
  // all of it holds.
  std::vector<Load> pending(pending_.size(), 0);
  std::vector<NodeId> ring(ring_.size());
  std::size_t size = 0;
  Load total = 0;
  for (std::uint64_t i = 0; i < count; ++i, in += 12) {
    const auto node = static_cast<NodeId>(load_le<std::uint32_t>(in));
    const auto amount = static_cast<Load>(load_le<std::uint64_t>(in + 4));
    if (node < 0 || node >= n_) {
      throw serial_error("admission queue state: backlog node out of range");
    }
    if (amount <= 0) {
      throw serial_error("admission queue state: non-positive backlog entry");
    }
    Load& p = pending[static_cast<std::size_t>(node)];
    if (p == 0) {
      ring[size++] = node;
    } else if (ring_format) {
      throw serial_error("admission queue state: repeated ring node");
    }
    if (__builtin_add_overflow(p, amount, &p) ||
        __builtin_add_overflow(total, amount, &total)) {
      throw serial_error("admission queue state: backlog overflows int64");
    }
  }
  pending_ = std::move(pending);
  ring_ = std::move(ring);
  ring_head_ = 0;
  ring_size_ = size;
  backlog_total_ = total;
}

}  // namespace dlb
