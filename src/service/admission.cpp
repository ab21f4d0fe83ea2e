#include "service/admission.hpp"

#include <algorithm>

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
  round_delta_.assign(size, 0);
  affected_.clear();
  dense_ = false;
}

void AdmissionQueue::prepare(Step t, std::span<const Load> loads) {
  DLB_REQUIRE(n_ > 0, "AdmissionQueue: reset() must run before stepping");
  inner_->prepare(t, loads);
  admit_round(t, nullptr);
}

void AdmissionQueue::prepare_parallel(Step t, std::span<const Load> loads,
                                      ThreadPool& pool) {
  DLB_REQUIRE(n_ > 0, "AdmissionQueue: reset() must run before stepping");
  inner_->prepare_parallel(t, loads, pool);
  admit_round(t, &pool);
}

void AdmissionQueue::admit_round(Step t, ThreadPool* pool) {
  if (const std::vector<NodeId>* sparse = inner_->affected_nodes()) {
    pass_sparse(t, *sparse);
  } else {
    affected_.clear();
    dense_ = true;
    const auto blocks = static_cast<std::int64_t>(blocks_.size());
    if (pool != nullptr && pool->parallelism() > 1 &&
        inner_->parallel_generate_safe()) {
      pool->for_ranges(blocks, [&](std::int64_t first, std::int64_t last) {
        pass_blocks(t, first, last);
      });
    } else {
      pass_blocks(t, 0, blocks);
    }
    commit_blocks(t);
  }
  drain();
  if (obs::metrics_armed()) {
    AdmissionMetrics& m = admission_metrics();
    m.backlog_entries.set(static_cast<std::int64_t>(ring_size_));
    m.backlog_tokens.set(backlog_total_);
  }
}

void AdmissionQueue::pass_blocks(Step t, std::int64_t first,
                                 std::int64_t last) {
  const auto n = static_cast<std::int64_t>(n_);
  const auto count = static_cast<std::int64_t>(blocks_.size());
  for (std::int64_t b = first; b < last; ++b) {
    Block& blk = blocks_[static_cast<std::size_t>(b)];
    blk.fresh.clear();
    Load arrived = 0;
    bool overflowed = false;
    const std::int64_t lo = n * b / count;
    const std::int64_t hi = n * (b + 1) / count;
    inner_->fill(t, static_cast<NodeId>(lo),
                 std::span<Load>(round_delta_).subspan(
                     static_cast<std::size_t>(lo),
                     static_cast<std::size_t>(hi - lo)));
    for (std::int64_t i = lo; i < hi && !overflowed; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const Load d = round_delta_[u];
      // Negatives pass through; the table holds no positives before the
      // drain, which admits from the ring.
      if (d <= 0) continue;
      round_delta_[u] = 0;
      Load& p = pending_[u];
      if (p == 0) blk.fresh.push_back(static_cast<NodeId>(i));
      overflowed = __builtin_add_overflow(p, d, &p) ||
                   __builtin_add_overflow(arrived, d, &arrived);
    }
    blk.arrived = arrived;
    blk.overflow = overflowed;
  }
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

void AdmissionQueue::pass_sparse(Step t, const std::vector<NodeId>& nodes) {
  // Clear last round's table: after a dense round every entry may be set,
  // otherwise only the touched ones — O(touched), not O(n).
  if (dense_) {
    std::fill(round_delta_.begin(), round_delta_.end(), 0);
  } else {
    for (NodeId u : affected_) round_delta_[static_cast<std::size_t>(u)] = 0;
  }
  affected_.clear();
  dense_ = false;
  std::vector<NodeId> fresh;
  Load total = backlog_total_;
  for (const NodeId u : nodes) {
    DLB_REQUIRE(u >= 0 && u < n_, "workload affected node out of range");
    const Load d = inner_->delta(u, t);
    if (d < 0) {
      Load& slot = round_delta_[static_cast<std::size_t>(u)];
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
}

void AdmissionQueue::drain() {
  Load budget = params_.round_cap;
  while (budget > 0 && ring_size_ > 0) {
    const NodeId u = ring_[ring_head_];
    Load& p = pending_[static_cast<std::size_t>(u)];
    const Load granted = std::min(p, budget);
    Load& slot = round_delta_[static_cast<std::size_t>(u)];
    if (!dense_ && slot == 0) affected_.push_back(u);
    slot += granted;
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

void AdmissionQueue::throw_overflow(NodeId u, Step t) const {
  throw invariant_error("AdmissionQueue: pending tokens overflow the int64 "
                        "ledger at node " +
                        std::to_string(u) + " in round " + std::to_string(t));
}

Load AdmissionQueue::delta(NodeId u, Step /*t*/) {
  return round_delta_[static_cast<std::size_t>(u)];
}

void AdmissionQueue::fill(Step /*t*/, NodeId first, std::span<Load> out) {
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
  const bool ring = word == kRingTag;
  const std::uint64_t count = ring ? r.u64() : word;
  if (count > r.remaining() / 12) {  // 4 bytes node + 8 bytes amount each
    throw serial_error("admission queue state: truncated backlog");
  }
  // Validate into fresh state; nothing is assigned until all of it holds.
  std::vector<Load> pending(pending_.size(), 0);
  std::vector<NodeId> order;
  Load total = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const NodeId node = r.i32();
    const Load amount = r.i64();
    if (node < 0 || node >= n_) {
      throw serial_error("admission queue state: backlog node out of range");
    }
    if (amount <= 0) {
      throw serial_error("admission queue state: non-positive backlog entry");
    }
    Load& p = pending[static_cast<std::size_t>(node)];
    if (p == 0) {
      order.push_back(node);
    } else if (ring) {
      throw serial_error("admission queue state: repeated ring node");
    }
    if (__builtin_add_overflow(p, amount, &p) ||
        __builtin_add_overflow(total, amount, &total)) {
      throw serial_error("admission queue state: backlog overflows int64");
    }
  }
  pending_ = std::move(pending);
  std::copy(order.begin(), order.end(), ring_.begin());
  ring_head_ = 0;
  ring_size_ = order.size();
  backlog_total_ = total;
}

}  // namespace dlb
