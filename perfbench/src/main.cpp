// dlb_perfbench: runs one perfbench workload and prints its result as one
// JSON line on stdout (run.py turns that into the benchmark's report).
//
//   dlb_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--size full|tiny] [--work-dir DIR]
//
// --trace 1 arms the metrics registry, records the bench's own spans
// (written to DIR/trace-NAME-seedN.json) and adds the per-layer metrics and
// the extra probe legs.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dlb_perfbench --workload "
               "service-overload|cycle-serial|torus-sharded|table1-sweep "
               "[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] "
               "[--work-dir DIR]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage();
      o.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      usage();
    }
  }
  if (!(o.seconds > 0.0)) usage();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const std::map<std::string, void (*)(const Options&, Result&, Spans&)> runs = {
      {"service-overload", run_service_overload},
      {"cycle-serial", run_cycle_serial},
      {"torus-sharded", run_torus_sharded},
      {"table1-sweep", run_table1_sweep},
  };
  const auto it = runs.find(o.workload);
  if (it == runs.end()) usage();

  Result r;
  Spans spans;
  if (o.trace) {
    // The roof every layer's bytes are read against: arrays 4× the LLC,
    // so the copy streams from memory, not cache.
    const std::size_t bytes = o.tiny ? std::size_t{8} << 20 : 4 * llc_bytes();
    r.set("host.copy_gib_per_s", copy_gib_per_s(bytes), "GiB/s");
  }
  it->second(o, r, spans);
  r.set("peak_rss_mib", peak_rss_mib(), "MiB");

  if (o.trace) {
    if (r.has("core.bytes_per_node_step")) {
      const double bytes_per_s = r.get("core.bytes_per_node_step") *
                                 r.get("core.node_steps_per_s");
      r.set("core.roof_frac",
            bytes_per_s / (r.get("host.copy_gib_per_s") * 1024 * 1024 * 1024),
            "fraction");
    }
    const std::string path = o.work_dir + "/trace-" + o.workload + "-seed" +
                             std::to_string(o.seed) + ".json";
    r.check("span dump written", spans.write_chrome_trace(path));
    std::fprintf(stderr, "self time by span (ms), %s:\n", o.workload.c_str());
    for (const auto& [name, seconds] : spans.self_times()) {
      std::fprintf(stderr, "  %-22s %12.3f\n", name.c_str(), seconds * 1e3);
    }
  }
  r.write_json(std::cout, o);
  return 0;
}
