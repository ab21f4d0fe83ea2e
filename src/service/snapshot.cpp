#include "service/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "dynamics/workload.hpp"
#include "graph/topology.hpp"
#include "shard/sharded_engine.hpp"

namespace dlb {

namespace {

constexpr std::uint64_t kMagic = 0x31504E53424C44ULL;  // "DLBSNP1\0" LE

/// Endian-stable hash of the adjacency: every neighbor(u, p) as four
/// little-endian bytes, in port-table order. Two graphs hash equal iff
/// their adjacency arrays are identical (rev ports are derived), whether
/// a formula or a table holds them, so snapshots move freely between a
/// structured graph and its without_structure() copy.
std::uint64_t hash_adjacency(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const int d = g.degree();
  with_topology(g, [&](const auto& topo) {
    auto cur = topo.cursor(0);
    for (NodeId u = 0; u < g.num_nodes(); ++u, cur.advance()) {
      for (int p = 0; p < d; ++p) {
        const auto v = static_cast<std::uint32_t>(cur.neighbor(p));
        for (int byte = 0; byte < 4; ++byte) {
          h ^= static_cast<std::uint8_t>(v >> (8 * byte));
          h *= 0x100000001b3ULL;
        }
      }
    }
  });
  return h;
}

void check(bool ok, const char* what) {
  if (!ok) throw serial_error(what);
}

/// Loads balancer, workload (if attached) and tracker (if given) state,
/// in image order; each blob must be consumed exactly.
template <class EngineT>
void load_components(EngineT& engine, SteadyStateTracker* tracker,
                     std::span<const std::uint8_t> balancer,
                     std::span<const std::uint8_t> workload,
                     std::span<const std::uint8_t> tracker_state) {
  {
    StateReader r(balancer);
    engine.balancer().load_state(r);
    r.expect_done("balancer state");
  }
  if (engine.workload() != nullptr) {
    StateReader r(workload);
    engine.workload()->load_state(r);
    r.expect_done("workload state");
  }
  if (tracker != nullptr) {
    StateReader r(tracker_state);
    tracker->load_state(r);
    r.expect_done("tracker state");
  }
}

/// Writes one length-prefixed component blob.
void put_blob(StateWriter& w, const std::vector<std::uint8_t>& blob) {
  w.u64(blob.size());
  w.bytes(blob);
}

std::vector<std::uint8_t> get_blob(StateReader& r) {
  const std::uint64_t len = r.u64();
  if (len > r.remaining()) {
    throw serial_error("snapshot payload truncated (bad section length)");
  }
  const auto s = r.bytes(static_cast<std::size_t>(len));
  return {s.begin(), s.end()};
}

}  // namespace

template <class EngineT>
EngineSnapshot EngineSnapshot::capture_impl(const EngineT& engine,
                                            const SteadyStateTracker* tracker) {
  EngineSnapshot s;
  const Graph& g = engine.graph();
  s.n_ = g.num_nodes();
  s.d_ = g.degree();
  s.self_loops_ = engine.self_loops();
  s.structure_kind_ = static_cast<std::uint8_t>(g.structure().kind);
  s.extents_ = g.structure().extents;
  s.adjacency_hash_ = hash_adjacency(g);
  s.graph_name_ = g.name();
  s.balancer_name_ = engine.balancer().name();
  s.time_ = engine.time();

  StateWriter core;
  engine.save_core_state(core);
  s.core_blob_ = core.take();

  StateWriter bal;
  engine.balancer().save_state(bal);
  s.balancer_blob_ = bal.take();

  if (const WorkloadProcess* w = engine.workload()) {
    s.workload_name_ = w->name();
    StateWriter ww;
    w->save_state(ww);
    s.workload_blob_ = ww.take();
  }
  if (tracker != nullptr) {
    s.has_tracker_ = true;
    StateWriter tw;
    tracker->save_state(tw);
    s.tracker_blob_ = tw.take();
  }
  return s;
}

EngineSnapshot EngineSnapshot::capture(const Engine& engine,
                                       const SteadyStateTracker* tracker) {
  return capture_impl(engine, tracker);
}

EngineSnapshot EngineSnapshot::capture(const ShardedEngine& engine,
                                       const SteadyStateTracker* tracker) {
  return capture_impl(engine, tracker);
}

template <class EngineT>
void EngineSnapshot::restore_impl(EngineT& engine,
                                  SteadyStateTracker* tracker) const {
  // Full fingerprint validation before any component is touched.
  const Graph& g = engine.graph();
  check(g.num_nodes() == n_, "snapshot restore: node count mismatch");
  check(g.degree() == d_, "snapshot restore: degree mismatch");
  check(engine.self_loops() == self_loops_,
        "snapshot restore: self-loop count mismatch");
  check(static_cast<std::uint8_t>(g.structure().kind) == structure_kind_,
        "snapshot restore: graph structure tag mismatch");
  check(g.structure().extents == extents_,
        "snapshot restore: torus extents mismatch");
  check(hash_adjacency(g) == adjacency_hash_,
        "snapshot restore: adjacency mismatch (different topology)");
  check(engine.balancer().name() == balancer_name_,
        "snapshot restore: balancer mismatch");
  if (workload_name_.empty()) {
    check(engine.workload() == nullptr,
          "snapshot restore: engine has a workload but the snapshot "
          "captured none");
  } else {
    check(engine.workload() != nullptr,
          "snapshot restore: snapshot captured a workload but none is "
          "attached");
    check(engine.workload()->name() == workload_name_,
          "snapshot restore: workload mismatch");
  }
  check(has_tracker_ == (tracker != nullptr),
        has_tracker_
            ? "snapshot restore: snapshot carries a tracker but none was "
              "supplied"
            : "snapshot restore: a tracker was supplied but the snapshot "
              "carries none");

  // The core must describe a state some run reaches, at the image's
  // round. It is checked here and committed last.
  {
    StateReader r(core_blob_);
    const RoundLedger::State s =
        RoundLedger::read_core(r, static_cast<std::size_t>(n_)).ledger;
    check(s.t == time_,
          "snapshot restore: core state round differs from the image's");
    check(engine.balancer().allows_negative() || s.min_seen >= 0,
          "snapshot restore: negative load for a balancer that cannot "
          "hold one");
  }
  // A later component can still be refused after an earlier one was
  // taken, so their state is saved first and put back on a refusal.
  StateWriter balancer_before;
  StateWriter workload_before;
  StateWriter tracker_before;
  engine.balancer().save_state(balancer_before);
  if (engine.workload() != nullptr) {
    engine.workload()->save_state(workload_before);
  }
  if (tracker != nullptr) tracker->save_state(tracker_before);
  try {
    load_components(engine, tracker, balancer_blob_, workload_blob_,
                    tracker_blob_);
  } catch (...) {
    load_components(engine, tracker, balancer_before.data(),
                    workload_before.data(), tracker_before.data());
    throw;
  }
  StateReader r(core_blob_);
  engine.load_core_state(r);
}

void EngineSnapshot::restore(Engine& engine,
                             SteadyStateTracker* tracker) const {
  restore_impl(engine, tracker);
}

void EngineSnapshot::restore(ShardedEngine& engine,
                             SteadyStateTracker* tracker) const {
  restore_impl(engine, tracker);
}

std::vector<std::uint8_t> EngineSnapshot::serialize() const {
  StateWriter payload;
  // The blobs and strings, their length prefixes, and the fixed fields.
  payload.reserve(core_blob_.size() + balancer_blob_.size() +
                  workload_blob_.size() + tracker_blob_.size() +
                  graph_name_.size() + balancer_name_.size() +
                  workload_name_.size() + 4 * extents_.size() + 128);
  payload.i32(n_);
  payload.i32(d_);
  payload.i32(self_loops_);
  payload.u8(structure_kind_);
  payload.vec_i32(extents_);
  payload.u64(adjacency_hash_);
  payload.str(graph_name_);
  payload.str(balancer_name_);
  payload.str(workload_name_);
  payload.i64(time_);
  payload.b(has_tracker_);
  put_blob(payload, core_blob_);
  put_blob(payload, balancer_blob_);
  put_blob(payload, workload_blob_);
  put_blob(payload, tracker_blob_);

  StateWriter out;
  out.reserve(28 + payload.size());
  out.u64(kMagic);
  out.u32(kFormatVersion);
  out.u64(payload.size());
  out.u64(fnv1a64(payload.data()));
  out.bytes(payload.data());
  return out.take();
}

EngineSnapshot EngineSnapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
  StateReader header(bytes);
  if (header.remaining() < 8 || header.u64() != kMagic) {
    throw serial_error("not a DLB snapshot (bad magic)");
  }
  const std::uint32_t version = header.u32();
  if (version < kOldestReadableVersion || version > kFormatVersion) {
    throw serial_error("unsupported snapshot format version " +
                       std::to_string(version) + " (this build reads " +
                       std::to_string(kOldestReadableVersion) + " to " +
                       std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_len != header.remaining()) {
    throw serial_error("snapshot truncated (payload length mismatch)");
  }
  const auto payload_bytes =
      header.bytes(static_cast<std::size_t>(payload_len));
  if (fnv1a64(payload_bytes) != checksum) {
    throw serial_error("snapshot checksum mismatch (corrupted file)");
  }

  StateReader r(payload_bytes);
  EngineSnapshot s;
  s.n_ = r.i32();
  s.d_ = r.i32();
  s.self_loops_ = r.i32();
  s.structure_kind_ = r.u8();
  s.extents_ = r.vec_i32();
  s.adjacency_hash_ = r.u64();
  s.graph_name_ = r.str();
  s.balancer_name_ = r.str();
  s.workload_name_ = r.str();
  s.time_ = r.i64();
  s.has_tracker_ = r.b();
  s.core_blob_ = get_blob(r);
  s.balancer_blob_ = get_blob(r);
  s.workload_blob_ = get_blob(r);
  s.tracker_blob_ = get_blob(r);
  r.expect_done("snapshot payload");
  return s;
}

void EngineSnapshot::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  const std::string tmp = path + ".tmp";
  // POSIX write-fsync-rename: the image is durable *before* it takes the
  // checkpoint's name, so a crash mid-write leaves either the old intact
  // checkpoint or a stray .tmp — never a torn file under `path`. Each
  // failure mode gets its own message (ENOSPC is the one operators hit).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw serial_error("snapshot write: cannot open temporary file " + tmp +
                       ": " + std::strerror(errno));
  }
  auto fail = [&](const std::string& what) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    if (saved == ENOSPC) {
      throw serial_error("snapshot write: no space left on device (" + what +
                         " " + tmp + ")");
    }
    throw serial_error("snapshot write: " + what + " " + tmp + ": " +
                       std::strerror(saved));
  };
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write failed for");
    }
    if (n == 0) {
      // A zero-byte write on a regular file is a short write in disguise
      // (typically a full filesystem that has not reported ENOSPC yet).
      errno = ENOSPC;
      fail("short write to");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync failed for");
  if (::close(fd) != 0) {
    // close() can surface deferred write errors (NFS, quotas); the fd is
    // gone either way, so only unlink and report.
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw serial_error("snapshot write: close failed for " + tmp + ": " +
                       std::strerror(saved));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    throw serial_error("snapshot write: rename " + tmp + " -> " + path +
                       " failed: " + std::strerror(saved));
  }
}

EngineSnapshot EngineSnapshot::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw serial_error("snapshot read: cannot open " + path);
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  check(!in.bad(), "snapshot read: read failed");
  return deserialize(bytes);
}

}  // namespace dlb
