#include "core/round_plan.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "util/assertions.hpp"

namespace dlb {

/// Boundary nodes per row-mode decide_range: bounds a part's row buffer.
constexpr NodeId kRowChunk = 256;

RoundPlan::RoundPlan(const Graph& g, int d_loops, bool gather, int parts,
                     bool shared_loads)
    : g_(&g), d_loops_(d_loops), gather_(gather),
      part_(g.num_nodes(), parts) {
  DLB_REQUIRE(d_loops >= 0, "self_loops must be non-negative");
  const auto k = static_cast<std::size_t>(parts);
  parts_.resize(k);
  for (Part& pt : parts_) {
    pt.group.assign(k + 1, 0);
    pt.heads.resize(k);
  }
  if (parts > 1 && !(gather && shared_loads)) {
    build();
    return;
  }
  for (int s = 0; s < parts; ++s) {
    parts_[static_cast<std::size_t>(s)].interior.emplace_back(part_.begin(s),
                                                              part_.end(s));
    parts_[static_cast<std::size_t>(s)].interior_nodes = part_.size(s);
  }
}

void RoundPlan::build() {
  // Interior: every neighbour in [begin, end), a compare along the
  // topology cursor. owner() runs on cut edges only.
  const int d = g_->degree();
  const auto d_plus = static_cast<std::size_t>(d + d_loops_);
  with_topology(*g_, [&](const auto& topo) {
    for (int s = 0; s < parts(); ++s) {
      Part& pt = parts_[static_cast<std::size_t>(s)];
      const NodeId begin = part_.begin(s);
      const NodeId end = part_.end(s);
      const auto local = [&](NodeId v) { return v >= begin && v < end; };
      NodeId run = begin;  // first node of the current interior run
      auto cur = topo.cursor(begin);
      for (NodeId u = begin; u < end; ++u, cur.advance()) {
        const std::size_t first_cut = pt.cuts.size();
        for (int p = 0; p < topo.degree(); ++p) {
          const NodeId v = cur.neighbor(p);
          if (local(v)) continue;
          const int o = part_.owner(v);
          has_cut_ = true;
          DLB_REQUIRE(
              pt.cuts.size() < std::numeric_limits<std::uint32_t>::max(),
              "round plan: too many cut edges in one part");
          pt.cuts.push_back(static_cast<std::uint32_t>(o));  // dest for now
          ++pt.group[static_cast<std::size_t>(o) + 1];
          parts_[static_cast<std::size_t>(o)]
              .heads[static_cast<std::size_t>(s)]
              .push_back(v);
        }
        if (pt.cuts.size() == first_cut) continue;  // interior
        if (run < u) pt.interior.emplace_back(run, u);
        pt.interior_nodes += u - run;
        run = u + 1;
        if (gather_) pt.boundary.push_back(u);
      }
      if (run < end) pt.interior.emplace_back(run, end);
      pt.interior_nodes += end - run;
      // Group the staged flows by destination, each group in edge-cut
      // order, and turn each cut's destination into its slot.
      std::partial_sum(pt.group.begin(), pt.group.end(), pt.group.begin());
      std::vector<std::uint32_t> fill(pt.group.begin(), pt.group.end() - 1);
      for (std::uint32_t& c : pt.cuts) c = fill[c]++;
      pt.cuts.push_back(0);  // the spare
      pt.staged.assign(pt.cuts.size() - 1, 0);
      if (!gather_) {
        if (pt.interior_nodes < end - begin) {
          pt.rows.resize(
              static_cast<std::size_t>(std::min(kRowChunk, end - begin)) *
              d_plus);
        }
        continue;
      }
      // Gather: each node a boundary node reads gets one row of `rows`,
      // decided once per round.
      std::vector<NodeId> src;
      for (const NodeId b : pt.boundary) {
        src.push_back(b);
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(b, p);
          if (local(v)) src.push_back(v);
        }
      }
      std::sort(src.begin(), src.end());
      src.erase(std::unique(src.begin(), src.end()), src.end());
      const auto row_of = [&](NodeId v) {
        return static_cast<std::int64_t>(
                   std::lower_bound(src.begin(), src.end(), v) - src.begin()) *
               static_cast<std::int64_t>(d_plus);
      };
      for (const NodeId b : pt.boundary) {
        const std::int64_t own = row_of(b);
        pt.pulls.push_back(own);
        for (int p = 0; p < d; ++p) {
          const NodeId v = topo.neighbor(b, p);
          pt.pulls.push_back(local(v) ? row_of(v) + topo.rev_port(b, p) : -1);
        }
      }
      pt.rows.resize(src.size() * d_plus);
      for (const NodeId v : src) {
        if (!pt.sources.empty() && pt.sources.back().second == v) {
          ++pt.sources.back().second;
        } else {
          pt.sources.emplace_back(v, v + 1);
        }
      }
    }
  });
}

void RoundPlan::decide(int s, Balancer& b, std::span<const Load> loads,
                       Step t, Load* next) {
  Part& pt = parts_[static_cast<std::size_t>(s)];
  if (gather_) return decide_gather(pt, b, loads, t, next);
  decide_multi_touch(s, pt, b, loads, t, next);
}

void RoundPlan::decide_multi_touch(int s, Part& pt, Balancer& b,
                                   std::span<const Load> loads, Step t,
                                   Load* next) {
  // In ascending node order, so a sequential RNG stream sees the flat
  // order.
  const NodeId begin = part_.begin(s);
  const NodeId end = part_.end(s);
  std::fill(next + begin, next + end, Load{0});
  const int d = g_->degree();
  const int d_plus = d + d_loops_;
  const bool negatives_ok = b.allows_negative();
  FlowSink sink = FlowSink::scatter(*g_, d_loops_, next);
  const auto span = static_cast<std::uint32_t>(end - begin);
  Load* const staged = pt.staged.data();
  const std::uint32_t* cut = pt.cuts.data();  // met in edge-cut order
  with_topology(*g_, [&](const auto& topo) {
    const auto route = [&](NodeId first, NodeId last) {
      for (NodeId lo = first; lo < last; lo += kRowChunk) {
        const NodeId hi = std::min(last, lo + kRowChunk);
        FlowSink rows(*g_, d_loops_, pt.rows.data(), lo);
        b.decide_range(lo, hi, loads, t, rows);
        const Load* own = pt.rows.data();
        auto cur = topo.cursor(lo);
        for (NodeId u = lo; u < hi; ++u, cur.advance(), own += d_plus) {
          Load kept = loads[static_cast<std::size_t>(u)];
          for (int p = 0; p < d; ++p) kept -= own[p];
          DLB_REQUIRE(negatives_ok || kept >= 0,
                      "balancer sent more tokens than available");
          next[u] += kept;
          for (int p = 0; p < d; ++p) {
            // Branch-free: a generic graph mixes local and cut ports at
            // random. The spare slot serves ports after the last cut edge.
            const NodeId v = cur.neighbor(p);
            const bool here = static_cast<std::uint32_t>(v - begin) < span;
            const std::uintptr_t keep = 0 - std::uintptr_t{here};  // ~0: local
            Load* const to = reinterpret_cast<Load*>(
                (reinterpret_cast<std::uintptr_t>(next + v) & keep) |
                (reinterpret_cast<std::uintptr_t>(staged + *cut) & ~keep));
            *to = (*to & -Load{here}) + own[p];
            cut += !here;
          }
        }
      }
    };
    NodeId u = begin;
    for (const auto& [first, last] : pt.interior) {
      if (u < first) route(u, first);
      b.decide_range(first, last, loads, t, sink);
      u = last;
    }
    if (u < end) route(u, end);
  });
  DLB_ASSERT(cut == pt.cuts.data() + pt.staged.size(),
             "cut edges out of plan order");
}

void RoundPlan::decide_gather(Part& pt, Balancer& b,
                              std::span<const Load> loads, Step t,
                              Load* next) {
  // A boundary node adds nothing into same-part slots: their gathers
  // pulled its load already.
  const int d = g_->degree();
  const auto d_plus = static_cast<std::size_t>(d + d_loops_);
  const Load* const rows = pt.rows.data();
  Load* run_rows = pt.rows.data();
  for (const auto& [first, last] : pt.sources) {
    FlowSink run(*g_, d_loops_, run_rows, first);
    b.decide_range(first, last, loads, t, run);
    run_rows += static_cast<std::size_t>(last - first) * d_plus;
  }
  FlowSink sink = FlowSink::scatter(*g_, d_loops_, next);
  for (const auto& [first, last] : pt.interior) {
    b.decide_range(first, last, loads, t, sink);
  }
  // An unwritten slot would still hold an older round's load.
  DLB_REQUIRE(sink.emit_covered() == pt.interior_nodes,
              "gather kernel did not write every next-load slot (the runs "
              "did not cover every interior slot)");
  pt.scan = sink.emit_stats();
  const std::int64_t* pull = pt.pulls.data();
  const std::uint32_t* cut = pt.cuts.data();  // met in edge-cut order
  for (const NodeId u : pt.boundary) {
    const Load* own = rows + pull[0];
    Load acc = loads[static_cast<std::size_t>(u)];
    for (int p = 0; p < d; ++p) {
      acc -= own[p];
      if (pull[1 + p] >= 0) {
        acc += rows[pull[1 + p]];
      } else {
        pt.staged[*cut++] = own[p];
      }
    }
    next[u] = acc;
    pull += 1 + d;
  }
}

void RoundPlan::receive(int s, int from, std::span<const std::byte> flows,
                        Load* next) const {
  const std::vector<NodeId>& heads =
      parts_[static_cast<std::size_t>(s)].heads[static_cast<std::size_t>(from)];
  DLB_REQUIRE(flows.size() == heads.size() * sizeof(Load),
              "flow stream: payload does not match the edge cut");
  const std::byte* at = flows.data();
  for (const NodeId v : heads) {
    Load f;
    std::memcpy(&f, at, sizeof(Load));
    at += sizeof(Load);
    next[v] += f;
  }
}

LoadScan RoundPlan::finish(int s, const Load* next) {
  Part& pt = parts_[static_cast<std::size_t>(s)];
  for (const NodeId u : pt.boundary) {
    const Load x = next[u];
    pt.scan.merge({x, x, x});
  }
  return pt.scan;
}

}  // namespace dlb
