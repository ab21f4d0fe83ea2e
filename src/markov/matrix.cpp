#include "markov/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "graph/topology.hpp"
#include "util/assertions.hpp"

namespace dlb {

TransitionOperator::TransitionOperator(const Graph& g, int self_loops)
    : g_(&g), d_loops_(self_loops) {
  DLB_REQUIRE(self_loops >= 0, "self_loops must be non-negative");
  DLB_REQUIRE(g.degree() + self_loops > 0, "balancing degree must be positive");
}

void TransitionOperator::apply(std::span<const double> x,
                               std::span<double> y) const {
  const auto n = static_cast<std::size_t>(g_->num_nodes());
  DLB_REQUIRE(x.size() == n && y.size() == n, "apply: size mismatch");
  const double inv_dplus = 1.0 / balancing_degree();
  const double loop_weight = static_cast<double>(d_loops_) * inv_dplus;
  const int d = g_->degree();
  with_topology(*g_, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    for (std::size_t u = 0; u < n; ++u, cur.advance()) {
      double acc = loop_weight * x[u];
      for (int p = 0; p < d; ++p) {
        acc += inv_dplus * x[static_cast<std::size_t>(cur.neighbor(p))];
      }
      y[u] = acc;
    }
  });
}

void TransitionOperator::apply_in_place(std::vector<double>& x) const {
  scratch_.resize(x.size());
  apply(x, scratch_);
  x.swap(scratch_);
}

DenseSymmetric::DenseSymmetric(std::size_t n) : n_(n), a_(n * n, 0.0) {
  DLB_REQUIRE(n > 0, "DenseSymmetric needs n > 0");
}

DenseSymmetric DenseSymmetric::transition_matrix(const Graph& g,
                                                 int self_loops) {
  DLB_REQUIRE(self_loops >= 0, "self_loops must be non-negative");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  DenseSymmetric m(n);
  const double inv_dplus = 1.0 / (g.degree() + self_loops);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    m.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) =
        self_loops * inv_dplus;
    for (int p = 0; p < g.degree(); ++p) {
      m.at(static_cast<std::size_t>(u),
           static_cast<std::size_t>(g.neighbor(u, p))) +=
          inv_dplus;  // += handles parallel edges
    }
  }
  return m;
}

void DenseSymmetric::apply(std::span<const double> x,
                           std::span<double> y) const {
  DLB_REQUIRE(x.size() == n_ && y.size() == n_, "apply: size mismatch");
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = 0.0;
    const double* row = a_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

std::vector<double> DenseSymmetric::eigenvalues(double tol,
                                                int max_sweeps) const {
  // Cyclic Jacobi: repeatedly zero out the largest-magnitude off-diagonal
  // entries with Givens rotations until the off-diagonal mass vanishes.
  std::vector<double> a = a_;
  const std::size_t n = n_;

  auto off_norm = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        s += 2.0 * a[i * n + j] * a[i * n + j];
      }
    }
    return std::sqrt(s);
  };

  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol; ++sweep) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::abs(apq) < tol / (static_cast<double>(n) * n)) continue;
        const double app = a[p * n + p];
        const double aqq = a[q * n + q];
        const double theta = 0.5 * (aqq - app) / apq;
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p];
          const double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k];
          const double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
      }
    }
  }

  std::vector<double> eig(n);
  for (std::size_t i = 0; i < n; ++i) eig[i] = a[i * n + i];
  std::sort(eig.begin(), eig.end(), std::greater<>());
  return eig;
}

}  // namespace dlb
