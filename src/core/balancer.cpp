#include "core/balancer.hpp"

#include <algorithm>
#include <vector>

#include "graph/topology.hpp"
#include "util/assertions.hpp"

namespace dlb {

void Balancer::prepare_round(std::span<const Load> /*loads*/, Step /*t*/,
                             FlowSink& /*sink*/) {}

bool Balancer::gathers(const Graph& /*g*/) const { return false; }

// Stateless default: nothing beyond what reset() reconstructs. Stateful
// balancers override both; overriding only one trips the snapshot
// layer's exact-consumption check.
void Balancer::save_state(StateWriter& /*w*/) const {}
void Balancer::load_state(StateReader& /*r*/) {}

void Balancer::decide_range(NodeId first, NodeId last,
                            std::span<const Load> loads, Step t,
                            FlowSink& sink) {
  const Graph& g = sink.graph();
  const int d = g.degree();
  const int d_plus = sink.ports();
  const bool negatives_ok = allows_negative();
  const bool rows = sink.row_mode();

  // Scatter mode reuses one scratch row and adds into the zero-filled
  // next-load buffer; row mode writes straight into the per-node records.
  std::vector<Load> scratch;
  Load* const next = sink.next();
  if (!rows) scratch.assign(static_cast<std::size_t>(d_plus), 0);

  with_topology(g, [&](const auto& topo) {
    auto cur = topo.cursor(first);
    for (NodeId u = first; u < last; ++u, cur.advance()) {
      std::span<Load> row = rows ? sink.row(u) : std::span<Load>(scratch);
      std::fill(row.begin(), row.end(), 0);

      const Load x = loads[static_cast<std::size_t>(u)];
      decide(u, x, t, row);

      Load sent = 0;
      for (int p = 0; p < d_plus; ++p) {
        DLB_ASSERT(negatives_ok || row[static_cast<std::size_t>(p)] >= 0,
                   "balancer produced a negative flow");
        sent += row[static_cast<std::size_t>(p)];
      }
      const Load remainder = x - sent;
      DLB_REQUIRE(negatives_ok || remainder >= 0,
                  "balancer sent more tokens than available");
      if (rows) continue;  // the engine's apply phase pulls from the rows

      Load kept = remainder;
      for (int p = d; p < d_plus; ++p) kept += row[static_cast<std::size_t>(p)];
      next[static_cast<std::size_t>(u)] += kept;
      for (int p = 0; p < d; ++p) {
        next[static_cast<std::size_t>(cur.neighbor(p))] +=
            row[static_cast<std::size_t>(p)];
      }
    }
  });
}

}  // namespace dlb
