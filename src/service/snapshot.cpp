#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <utility>

#include "dynamics/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_engine.hpp"

namespace dlb {

namespace {

constexpr std::uint64_t kMagic = 0x31504E53424C44ULL;  // "DLBSNP1\0" LE

// Header layout: magic (8 bytes), version (4), payload length (8),
// payload checksum (8); the payload follows.
constexpr std::size_t kLengthAt = 12;
constexpr std::size_t kChecksumAt = 20;
constexpr std::size_t kHeaderBytes = 28;

/// dlb_snapshot_fsync_seconds (registered on first use with telemetry on).
obs::Histogram& fsync_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "dlb_snapshot_fsync_seconds",
      "Wall-clock latency of the fsync that makes a checkpoint image "
      "durable before it takes the checkpoint's name.",
      obs::phase_seconds_bounds());
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

}  // namespace

template <class EngineT>
EngineSnapshot EngineSnapshot::capture_impl(const EngineT& engine,
                                            const SteadyStateTracker* tracker) {
  const Graph& g = engine.graph();
  const WorkloadProcess* workload = engine.workload();
  // One allocation for the header, the fingerprint (names included, up
  // to a few KiB) and 32 bytes a node: the core blob's loads plus a
  // per-node component state as large as ROTOR-ROUTER's ports on a
  // degree-4 graph or an admission ring. A larger state regrows it
  // geometrically. Pages fault in only as they are written, so the
  // headroom costs address space, not memory. (The size goes through
  // uint32_t so the compiler sees that the sum cannot wrap.)
  const std::size_t nodes = static_cast<std::uint32_t>(g.num_nodes());
  StateWriter w;
  w.reserve(kHeaderBytes + 4096 + 32 * nodes);
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u64(0);  // payload length, patched below
  w.u64(0);  // payload checksum, patched below
  w.i32(g.num_nodes());
  w.i32(g.degree());
  w.i32(engine.self_loops());
  w.u8(static_cast<std::uint8_t>(g.structure().kind));
  w.vec_i32(g.structure().extents);
  w.u64(g.adjacency_hash());
  w.str(g.name());
  w.str(engine.balancer().name());
  w.str(workload != nullptr ? workload->name() : std::string());
  w.i64(engine.time());
  w.b(tracker != nullptr);
  // Each component writes its blob in place behind a length prefix that
  // is patched once the blob is done.
  const auto put_blob = [&w](const auto& save) {
    const std::size_t at = w.size();
    w.u64(0);
    save();
    w.patch_u64(at, w.size() - at - 8);
  };
  put_blob([&] { engine.save_core_state(w); });
  put_blob([&] { engine.balancer().save_state(w); });
  put_blob([&] {
    if (workload != nullptr) workload->save_state(w);
  });
  put_blob([&] {
    if (tracker != nullptr) tracker->save_state(w);
  });
  const std::size_t payload_len = w.size() - kHeaderBytes;
  w.patch_u64(kLengthAt, payload_len);
  w.patch_u64(kChecksumAt,
              payload_checksum(kFormatVersion,
                               std::span<const std::uint8_t>(w.data())
                                   .subspan(kHeaderBytes, payload_len),
                               engine.thread_pool()));
  return parse(w.take(), /*verify_checksum=*/false);  // just computed
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
  check(g.adjacency_hash() == adjacency_hash_,
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
    StateReader r(blob(core_));
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
    load_components(engine, tracker, blob(balancer_), blob(workload_),
                    blob(tracker_));
  } catch (...) {
    load_components(engine, tracker, balancer_before.data(),
                    workload_before.data(), tracker_before.data());
    throw;
  }
  StateReader r(blob(core_));
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

std::uint64_t EngineSnapshot::payload_checksum(
    std::uint32_t version, std::span<const std::uint8_t> payload,
    ThreadPool* pool) {
  return version <= 2 ? fnv1a64(payload) : block_checksum(payload, pool);
}

std::vector<std::uint8_t> EngineSnapshot::serialize() const {
  return {image_.begin(), image_.end()};
}

EngineSnapshot EngineSnapshot::deserialize(
    std::span<const std::uint8_t> bytes) {
  ImageBytes image(bytes.size());
  if (!bytes.empty()) std::memcpy(image.data(), bytes.data(), bytes.size());
  return parse(std::move(image), /*verify_checksum=*/true);
}

EngineSnapshot EngineSnapshot::parse(ImageBytes image, bool verify_checksum) {
  EngineSnapshot s;
  s.image_ = std::move(image);
  StateReader header(s.image_);
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
  if (verify_checksum &&
      payload_checksum(version, payload_bytes) != checksum) {
    throw serial_error("snapshot checksum mismatch (corrupted file)");
  }

  StateReader r(payload_bytes);
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
  for (Blob* b : {&s.core_, &s.balancer_, &s.workload_, &s.tracker_}) {
    const std::uint64_t len = r.u64();
    if (len > r.remaining()) {
      throw serial_error("snapshot payload truncated (bad section length)");
    }
    // The payload runs to the end of the image.
    b->offset = s.image_.size() - r.remaining();
    b->size = static_cast<std::size_t>(len);
    r.bytes(b->size);
  }
  r.expect_done("snapshot payload");
  return s;
}

void EngineSnapshot::write_file(const std::string& path) const {
  const ImageBytes& bytes = image_;
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
  {
    // Its own checkpoint layer, timed only when telemetry is armed.
    std::optional<obs::PhaseScope> phase;
    if (obs::metrics_armed() || obs::trace_enabled()) {
      phase.emplace(fsync_seconds(), "fsync", "snapshot");
    }
    if (::fsync(fd) != 0) fail("fsync failed for");
  }
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
  // One sized read straight into the image buffer: the file's size from
  // fstat, then read() until it is in (a short count only on a signal or
  // a file that shrank meanwhile, which the parser then refuses).
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw serial_error("snapshot read: cannot open " + path);
  }
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw serial_error("snapshot read: cannot stat " + path);
  }
  ImageBytes bytes(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      throw serial_error("snapshot read: read failed for " + path);
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return parse(std::move(bytes), /*verify_checksum=*/true);
}

}  // namespace dlb
