// Shared helpers for the bench binaries: named graph instances with
// analytic spectral gaps where available, the common --threads/--csv
// CLI surface of the sweep-based benches, and table printing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sweep.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "markov/spectral.hpp"
#include "util/parse_number.hpp"

namespace dlb::bench {

/// The CLI surface every sweep-based bench shares (bench_table1 set the
/// convention): `--threads=N` (0 = all hardware threads) and
/// `--csv=FILE`.
struct SweepCli {
  int threads = 0;
  std::string csv_path;
};

/// Parses argv; on an unknown flag or a --threads value that is not a
/// whole non-negative integer prints usage for `program` and calls
/// std::exit(2) (the benches' established bad-flag contract).
inline SweepCli parse_sweep_cli(int argc, char** argv, const char* program) {
  SweepCli cli;
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--threads=N] [--csv=FILE]\n", program);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const std::optional<int> threads = parse_number<int>(argv[i] + 10);
      if (!threads || *threads < 0) usage();
      cli.threads = *threads;
    } else if (std::strncmp(argv[i], "--csv=", 6) == 0) {
      cli.csv_path = argv[i] + 6;
    } else {
      usage();
    }
  }
  return cli;
}

/// Writes the sweep CSV to `--csv=FILE` when given (exit code 1 if the
/// path cannot be opened), else to stdout. Returns the process exit code.
inline int emit_sweep_csv(const std::vector<SweepRow>& rows,
                          const SweepCli& cli, bool stdout_fallback = true) {
  if (!cli.csv_path.empty()) {
    std::ofstream out(cli.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", cli.csv_path.c_str());
      return 1;
    }
    SweepRunner::write_csv(rows, out);
    std::printf("CSV written to %s (%zu rows)\n", cli.csv_path.c_str(),
                rows.size());
  } else if (stdout_fallback) {
    std::printf("\n");
    SweepRunner::write_csv(rows, std::cout);
  }
  return 0;
}

/// A graph plus the spectral gap of its balancing graph for a given d°.
struct Instance {
  Graph graph;
  double mu;  ///< spectral gap of G⁺ (analytic when the family has one)
};

/// Adapts an Instance to a sweep-matrix graph axis entry.
inline GraphCase as_case(std::string family, Instance inst) {
  return {std::move(family),
          std::make_shared<const Graph>(std::move(inst.graph)), inst.mu};
}

/// Filters a matrix's cross product down to the scenarios where
/// `keep(scenario, graph_case)` holds — the pairing idiom for benches
/// that tie an axis value (K = n, a per-case d°) to each graph case.
template <typename Pred>
std::vector<Scenario> paired_scenarios(const SweepMatrix& m, Pred keep) {
  std::vector<Scenario> out;
  for (const Scenario& s : m.scenarios()) {
    if (keep(s, m.graphs()[s.graph_index])) out.push_back(s);
  }
  return out;
}

inline Instance cycle_instance(NodeId n, int d_loops) {
  Graph g = make_cycle(n);
  return {std::move(g), 1.0 - lambda2_cycle(n, d_loops)};
}

inline Instance torus_instance(NodeId w, NodeId h, int d_loops) {
  Graph g = make_torus2d(w, h);
  return {std::move(g), 1.0 - lambda2_torus({w, h}, d_loops)};
}

inline Instance hypercube_instance(int dim, int d_loops) {
  Graph g = make_hypercube(dim);
  return {std::move(g), 1.0 - lambda2_hypercube(dim, d_loops)};
}

inline Instance random_regular_instance(NodeId n, int d, std::uint64_t seed,
                                        int d_loops) {
  Graph g = make_random_regular(n, d, seed);
  const double mu = spectral_gap(g, d_loops).gap;
  return {std::move(g), mu};
}

/// Prints a horizontal rule sized for `width` characters.
inline void rule(int width) {
  for (int i = 0; i < width; ++i) std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

}  // namespace dlb::bench
