// Group-committed write-ahead log for the durable skip-tree facade.
//
// The skip-tree's mutation paths are lock-free; a durable layer must not
// re-serialize them through a log mutex.  Following the per-thread-buffer
// discipline Brown's thesis motivates for anything riding a lock-free hot
// path, an appender:
//
//   1. encodes its record into a THREAD-LOCAL buffer slot (one tiny mutex
//      per slot, contended only with the flusher, never with other
//      appenders),
//   2. takes a global LSN with one uncontended fetch_add, and
//   3. either returns immediately (fsync policies `interval` / `none`) or
//      parks on the commit condvar until the flusher reports its LSN
//      durable (`every_commit` -- the classic group commit: many waiters
//      amortize one fsync).
//
// A single background flusher drains every slot, merges records into LSN
// order, and appends them to the active segment file.  The file therefore
// carries records in strictly contiguous LSN order, which is what makes
// torn-tail recovery unambiguous: replay walks records until the first
// short read, bad CRC, or LSN discontinuity, and everything before that
// point is exactly the durable prefix 1..N.  The flusher never writes LSN
// k+1 before k exists (a just-assigned LSN whose record is still being
// published parks the drain for a moment), so "contiguous prefix" is an
// invariant, not a hope.
//
// On-disk format (all integers little-endian, as written on x86-64):
//
//   segment file  wal-<first_lsn>.log:
//     [magic u64][version u32][flags u32][first_lsn u64][reserved u32]
//     [header_crc32c u32]                                  = 32 bytes
//   record, repeated:
//     [crc32c u32][payload_len u32][lsn u64][op u8][pad u8*3][payload...]
//     crc32c covers everything after itself (len, lsn, op, pad, payload).
//
// Segments are append-only and rotated by checkpoints (checkpoint.hpp);
// rotation closes the active segment after LSN L and opens
// wal-<L+1>.log, so a checkpoint stamped with L owns a clean segment
// boundary.  Writes go through stdio buffering on purpose: a process kill
// between fwrite and fflush leaves a torn tail at an arbitrary byte
// boundary, which is precisely the case recovery must (and the crash
// harness does) exercise.  fsync order is fflush -> fsync(fd); an
// acknowledgment under `every_commit` therefore means the record bytes
// reached the kernel page cache AND the device sync was issued.
//
// Failpoint sites (crash-injection kill points, compiled in with
// -DLFST_FAILPOINTS): storage.wal.append, storage.wal.write,
// storage.wal.write.mid (between the two halves of a record, forcing a
// genuinely torn record), storage.wal.fsync (before), storage.wal.synced
// (after fsync, before the ack is published), storage.wal.rotate,
// storage.wal.segment.create.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32c.hpp"
#include "common/failpoint.hpp"
#include "common/telemetry.hpp"

namespace lfst::storage {

using lsn_t = std::uint64_t;

/// When an acknowledged operation is durable.
enum class fsync_policy : std::uint8_t {
  every_commit = 0,  ///< ack after fsync covers the op's LSN (group commit)
  interval = 1,      ///< ack immediately; background fsync every interval
  none = 2,          ///< ack immediately; fsync only on flush()/rotate/close
};

constexpr const char* fsync_policy_name(fsync_policy p) noexcept {
  switch (p) {
    case fsync_policy::every_commit: return "every_commit";
    case fsync_policy::interval: return "interval";
    default: return "none";
  }
}

/// Logical operations the durable facade records.  Replay applies them as
/// set semantics: add = ensure present, remove = ensure absent, put =
/// upsert (insert or overwrite the order-equivalent element).
enum class wal_op : std::uint8_t { add = 1, remove = 2, put = 3 };

struct wal_options {
  fsync_policy sync = fsync_policy::every_commit;
  std::chrono::microseconds sync_interval{5000};  ///< for fsync_policy::interval
  std::chrono::microseconds flusher_poll{200};    ///< flusher wakeup ceiling
};

// --- on-disk constants -------------------------------------------------------

inline constexpr std::uint64_t kWalMagic = 0x4c46535457414c31ull;  // "LFSTWAL1"
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::size_t kSegmentHeaderBytes = 32;
inline constexpr std::size_t kRecordHeaderBytes = 20;
/// Upper bound a reader will believe for one record's payload; a torn or
/// bit-flipped length field past this is corruption, not a giant record.
inline constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

inline std::string segment_filename(lsn_t first_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

inline bool parse_segment_filename(const std::string& name, lsn_t& first_lsn) {
  unsigned long long v = 0;
  if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
      name.compare(24, 4, ".log") != 0) {
    return false;
  }
  if (std::sscanf(name.c_str(), "wal-%20llu.log", &v) != 1) return false;
  first_lsn = v;
  return true;
}

inline std::string checkpoint_filename(lsn_t cp_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu.ckpt",
                static_cast<unsigned long long>(cp_lsn));
  return buf;
}

inline bool parse_checkpoint_filename(const std::string& name, lsn_t& cp_lsn) {
  unsigned long long v = 0;
  if (name.size() != 30 || name.rfind("ckpt-", 0) != 0 ||
      name.compare(25, 5, ".ckpt") != 0) {
    return false;
  }
  if (std::sscanf(name.c_str(), "ckpt-%20llu.ckpt", &v) != 1) return false;
  cp_lsn = v;
  return true;
}

/// fsync the directory itself so a just-created/renamed name is durable.
inline void fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Always-on WAL statistics (plain atomics; the telemetry registry records
/// appends, fsyncs and rotations as events too).
struct wal_stats {
  std::uint64_t appends = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t rotations = 0;
  lsn_t last_assigned = 0;
  lsn_t durable = 0;
};

class wal {
 public:
  /// Open (create) the segment wal-<next_lsn>.log in `dir` and start the
  /// flusher.  `next_lsn` is 1 for a fresh directory, or recovery's
  /// last_lsn + 1 on reopen.
  wal(std::string dir, lsn_t next_lsn, wal_options opts = wal_options{})
      : dir_(std::move(dir)),
        opts_(opts),
        id_(next_wal_id()),
        next_lsn_(next_lsn),
        written_lsn_(next_lsn - 1),
        durable_lsn_(next_lsn - 1) {
    std::lock_guard<std::mutex> g(io_mu_);
    open_segment_locked(next_lsn);
    flusher_ = std::thread([this] { flusher_main(); });
    // Publish the flusher gauges into the telemetry registry.  Columns are
    // append-only by name, so per-trial WAL instances (benches) reuse the
    // same schema slots.  The source reads atomics only -- safe against
    // concurrent close().
    tel_source_ = telemetry::scoped_source(
        "storage.wal",
        {"lag_records", "durable_lsn", "appends", "fsyncs", "rotations"},
        [this](double* v) {
          const wal_stats s = stats();
          v[0] = static_cast<double>(s.last_assigned > s.durable
                                         ? s.last_assigned - s.durable
                                         : 0);
          v[1] = static_cast<double>(s.durable);
          v[2] = static_cast<double>(s.appends);
          v[3] = static_cast<double>(s.fsyncs);
          v[4] = static_cast<double>(s.rotations);
        });
  }

  wal(const wal&) = delete;
  wal& operator=(const wal&) = delete;

  ~wal() { close(); }

  /// Enqueue one record; returns its LSN.  Never blocks on I/O (the commit
  /// wait, if any, is the caller's explicit `wait_durable`).
  lsn_t append(wal_op op, const void* payload, std::size_t len) {
    if (len > kMaxRecordPayload) {
      throw std::invalid_argument("wal::append: payload too large");
    }
    LFST_FP_POINT("storage.wal.append");
    slot& s = local_slot();
    // Everything that can throw happens BEFORE the LSN is taken: once an
    // LSN exists its record must become visible to the flusher, or the
    // contiguous-prefix invariant would park the log forever.
    pending_record rec(static_cast<std::uint32_t>(len));
    {
      std::lock_guard<std::mutex> lk(s.mu);
      // Grow geometrically, so a backlog the flusher has not drained yet
      // costs amortized O(1) per append; reserving one more element at a
      // time would copy the whole backlog on every append.
      if (s.recs.size() == s.recs.capacity()) {
        s.recs.reserve(std::max<std::size_t>(16, 2 * s.recs.capacity()));
      }
      const lsn_t lsn = next_lsn_.fetch_add(1, std::memory_order_relaxed);
      rec.encode(lsn, op, payload);
      s.recs.push_back(std::move(rec));  // noexcept: reserved + move
      appends_.fetch_add(1, std::memory_order_relaxed);
      bytes_appended_.fetch_add(kRecordHeaderBytes + len,
                                std::memory_order_relaxed);
      LFST_VALUE(wal_append_bytes, kRecordHeaderBytes + len);
      // Wake the flusher only on the idle -> pending edge.  An appender
      // that finds the flag already set leaves its record to the drain
      // that will clear it (see flusher_main), so the hot path skips the
      // flusher's mutex and notify.
      if (!work_pending_.exchange(true, std::memory_order_acq_rel)) {
        wake_flusher();
      }
      return lsn;
    }
  }

  /// Block until `lsn` is durable (written + fsynced).  LSN 0 returns
  /// immediately.
  void wait_durable(lsn_t lsn) {
    if (lsn == 0 || durable_lsn_.load(std::memory_order_acquire) >= lsn) {
      return;
    }
    std::unique_lock<std::mutex> lk(commit_mu_);
    commit_cv_.wait(lk, [&] {
      return durable_lsn_.load(std::memory_order_acquire) >= lsn ||
             closing_.load(std::memory_order_acquire);
    });
  }

  /// Drain every assigned LSN to the file and fsync.  On return, everything
  /// appended before the call is durable.
  void flush() {
    const lsn_t target = last_assigned();
    std::lock_guard<std::mutex> g(io_mu_);
    drain_until_locked(target);
    sync_locked();
  }

  /// Complete the active segment (drain + fsync everything assigned when
  /// the call began), close it, and open wal-<L+1>.log.  Returns L, the
  /// last LSN of the closed segment: every record <= L lives in closed
  /// segments, every record > L in the new one.  This is the checkpoint
  /// boundary.  L is the written prefix after one drain to the LSNs
  /// assigned at entry, so a sustained append stream cannot hold rotate()
  /// up; records above L that are already drained stay in pending_ and go
  /// to the new segment.
  lsn_t rotate() {
    std::lock_guard<std::mutex> g(io_mu_);
    drain_until_locked(last_assigned());
    sync_locked();
    LFST_FP_POINT("storage.wal.rotate");
    const lsn_t sealed = written_lsn_;
    std::fclose(file_);
    file_ = nullptr;
    open_segment_locked(sealed + 1);
    rotations_.fetch_add(1, std::memory_order_relaxed);
    LFST_COUNT(wal_rotations);
    return sealed;
  }

  /// Stop the flusher and make everything appended so far durable.  No
  /// append may race or follow close().
  void close() {
    bool expected = false;
    if (!closing_.compare_exchange_strong(expected, true)) return;
    wake_flusher();
    if (flusher_.joinable()) flusher_.join();
    {
      std::lock_guard<std::mutex> g(io_mu_);
      drain_until_locked(last_assigned());
      sync_locked();
      if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
      }
    }
    // Release any straggling wait_durable callers.
    std::lock_guard<std::mutex> lk(commit_mu_);
    commit_cv_.notify_all();
  }

  lsn_t last_assigned() const noexcept {
    return next_lsn_.load(std::memory_order_relaxed) - 1;
  }
  lsn_t durable() const noexcept {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  /// Flusher lag: records granted an LSN but not yet hardened by fsync.
  /// Zero the moment the WAL is fully durable; the telemetry sampler reads
  /// it as storage.wal.lag_records.
  lsn_t flush_lag() const noexcept {
    const lsn_t assigned = last_assigned();
    const lsn_t dur = durable();
    return assigned > dur ? assigned - dur : 0;
  }
  /// Monotone count of encoded bytes appended (the checkpoint trigger).
  std::uint64_t bytes_appended() const noexcept {
    return bytes_appended_.load(std::memory_order_relaxed);
  }
  const std::string& directory() const noexcept { return dir_; }
  const wal_options& options() const noexcept { return opts_; }

  wal_stats stats() const noexcept {
    wal_stats s;
    s.appends = appends_.load(std::memory_order_relaxed);
    s.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
    s.fsyncs = fsyncs_.load(std::memory_order_relaxed);
    s.rotations = rotations_.load(std::memory_order_relaxed);
    s.last_assigned = last_assigned();
    s.durable = durable();
    return s;
  }

 private:
  static constexpr std::size_t kInlineBytes = 64;

  /// One encoded record: [crc][len][lsn][op][pad][payload], inline for
  /// small payloads (the common case: a trivially-copyable key).
  struct pending_record {
    explicit pending_record(std::uint32_t payload_len)
        : size(static_cast<std::uint32_t>(kRecordHeaderBytes) + payload_len) {
      if (size > kInlineBytes) spill.reset(new unsigned char[size]);
    }

    void encode(lsn_t l, wal_op op, const void* payload) noexcept {
      lsn = l;
      unsigned char* p = data();
      const std::uint32_t len = size - kRecordHeaderBytes;
      std::memcpy(p + 4, &len, 4);
      std::memcpy(p + 8, &l, 8);
      p[16] = static_cast<unsigned char>(op);
      p[17] = p[18] = p[19] = 0;
      if (len > 0) std::memcpy(p + kRecordHeaderBytes, payload, len);
      const std::uint32_t crc = crc::crc32c_of(p + 4, size - 4);
      std::memcpy(p, &crc, 4);
    }

    unsigned char* data() noexcept {
      return spill ? spill.get() : inline_buf.data();
    }
    const unsigned char* data() const noexcept {
      return spill ? spill.get() : inline_buf.data();
    }

    lsn_t lsn = 0;
    std::uint32_t size;
    std::array<unsigned char, kInlineBytes> inline_buf;
    std::unique_ptr<unsigned char[]> spill;
  };

  struct slot {
    std::mutex mu;
    std::vector<pending_record> recs;
  };

  static std::uint64_t next_wal_id() noexcept {
    static std::atomic<std::uint64_t> c{1};
    return c.fetch_add(1, std::memory_order_relaxed);
  }

  slot& local_slot() {
    struct cache_entry {
      std::uint64_t id;
      slot* s;
    };
    thread_local std::vector<cache_entry> cache;
    for (const auto& e : cache) {
      if (e.id == id_) return *e.s;
    }
    slot* s = nullptr;
    {
      std::lock_guard<std::mutex> g(slots_mu_);
      slots_.push_back(std::make_unique<slot>());
      s = slots_.back().get();
    }
    cache.push_back(cache_entry{id_, s});
    return *s;
  }

  void wake_flusher() {
    std::lock_guard<std::mutex> g(flusher_mu_);
    flusher_cv_.notify_one();
  }

  void flusher_main() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(flusher_mu_);
        flusher_cv_.wait_for(lk, opts_.flusher_poll, [&] {
          return work_pending_.load(std::memory_order_acquire) ||
                 closing_.load(std::memory_order_acquire);
        });
      }
      if (closing_.load(std::memory_order_acquire)) return;  // close() drains
      // Clear the flag BEFORE draining.  An append whose exchange saw
      // `true` is ordered before this clear (acq_rel), and its record was
      // published under its slot mutex, which the drain below takes: this
      // drain collects it.  An append after the clear sees `false` and
      // wakes us again.  flusher_poll is only a backstop.
      work_pending_.exchange(false, std::memory_order_acq_rel);
      LFST_SPAN(wal_flush);
      std::lock_guard<std::mutex> g(io_mu_);
      const std::size_t wrote = drain_once_locked();
      const bool interval_due =
          opts_.sync == fsync_policy::interval &&
          (std::chrono::steady_clock::now() - last_sync_) >=
              opts_.sync_interval;
      if ((opts_.sync == fsync_policy::every_commit &&
           (wrote > 0 || unsynced_records_ > 0)) ||
          (interval_due && unsynced_records_ > 0)) {
        sync_locked();
      }
    }
  }

  /// Collect every published record, merge by LSN, append the contiguous
  /// prefix to the segment.  Returns the number of records written.
  /// Requires io_mu_.
  std::size_t drain_once_locked() {
    std::vector<slot*> snapshot;
    {
      std::lock_guard<std::mutex> g(slots_mu_);
      snapshot.reserve(slots_.size());
      for (const auto& s : slots_) snapshot.push_back(s.get());
    }
    bool got_new = false;
    for (slot* s : snapshot) {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->recs.empty()) continue;
      got_new = true;
      for (auto& r : s->recs) pending_.push_back(std::move(r));
      s->recs.clear();
    }
    if (got_new) {
      std::sort(pending_.begin(), pending_.end(),
                [](const pending_record& a, const pending_record& b) {
                  return a.lsn < b.lsn;
                });
    }
    std::size_t i = 0;
    if (i < pending_.size() && pending_[i].lsn == written_lsn_ + 1) {
      LFST_FP_POINT("storage.wal.write");
    }
    while (i < pending_.size() && pending_[i].lsn == written_lsn_ + 1) {
      write_record_locked(pending_[i]);
      ++written_lsn_;
      ++i;
    }
    if (i > 0) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(i));
      unsynced_records_ += i;
    }
    return i;
  }

  /// Drain until the contiguous written prefix reaches `target` (waiting
  /// out momentary publish gaps).  Requires io_mu_.
  void drain_until_locked(lsn_t target) {
    while (written_lsn_ < target) {
      if (drain_once_locked() == 0) std::this_thread::yield();
    }
  }

  void write_record_locked(const pending_record& r) {
#if defined(LFST_FAILPOINTS)
    // Two-part write so an armed crash site can die with half a record in
    // the stdio buffer -- the torn-record case recovery must absorb.
    const std::size_t half = r.size / 2;
    std::fwrite(r.data(), 1, half, file_);
    LFST_FP_POINT("storage.wal.write.mid");
    std::fwrite(r.data() + half, 1, r.size - half, file_);
#else
    std::fwrite(r.data(), 1, r.size, file_);
#endif
  }

  /// fflush + fsync the segment and publish the new durable LSN.
  /// Requires io_mu_.
  void sync_locked() {
    if (file_ == nullptr) return;
    if (written_lsn_ == durable_lsn_.load(std::memory_order_relaxed) &&
        unsynced_records_ == 0) {
      last_sync_ = std::chrono::steady_clock::now();
      return;
    }
    std::fflush(file_);
    LFST_FP_POINT("storage.wal.fsync");
    {
      // Low-rate path: timed on every fsync, not sampled.
      LFST_SPAN(wal_fsync);
      ::fsync(::fileno(file_));
    }
    LFST_VALUE(wal_batch, unsynced_records_);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    unsynced_records_ = 0;
    last_sync_ = std::chrono::steady_clock::now();
    LFST_FP_POINT("storage.wal.synced");
    {
      std::lock_guard<std::mutex> lk(commit_mu_);
      durable_lsn_.store(written_lsn_, std::memory_order_release);
    }
    commit_cv_.notify_all();
  }

  /// Create wal-<first_lsn>.log with its header.  Requires io_mu_.
  void open_segment_locked(lsn_t first_lsn) {
    LFST_FP_POINT("storage.wal.segment.create");
    const std::string path =
        (std::filesystem::path(dir_) / segment_filename(first_lsn)).string();
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) {
      throw std::runtime_error("wal: cannot create segment " + path);
    }
    unsigned char h[kSegmentHeaderBytes];
    std::memset(h, 0, sizeof(h));
    const std::uint32_t version = kWalVersion;
    std::memcpy(h, &kWalMagic, 8);
    std::memcpy(h + 8, &version, 4);
    std::memcpy(h + 16, &first_lsn, 8);
    const std::uint32_t crc = crc::crc32c_of(h, kSegmentHeaderBytes - 4);
    std::memcpy(h + kSegmentHeaderBytes - 4, &crc, 4);
    std::fwrite(h, 1, sizeof(h), file_);
    fsync_directory(dir_);
  }

  std::string dir_;
  wal_options opts_;
  std::uint64_t id_;

  std::mutex slots_mu_;
  std::vector<std::unique_ptr<slot>> slots_;

  std::atomic<lsn_t> next_lsn_;

  // io_mu_ protects the file, written_lsn_, pending_, unsynced_records_.
  std::mutex io_mu_;
  std::FILE* file_ = nullptr;
  lsn_t written_lsn_;
  std::vector<pending_record> pending_;
  std::size_t unsynced_records_ = 0;
  std::chrono::steady_clock::time_point last_sync_ =
      std::chrono::steady_clock::now();

  std::atomic<lsn_t> durable_lsn_;
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;

  std::mutex flusher_mu_;
  std::condition_variable flusher_cv_;
  std::atomic<bool> work_pending_{false};
  std::atomic<bool> closing_{false};
  std::thread flusher_;

  std::atomic<std::uint64_t> appends_{0};
  std::atomic<std::uint64_t> bytes_appended_{0};
  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> rotations_{0};

  // Last member on purpose: destroyed first, so the sampler can no longer
  // call our fill lambda while the rest of the WAL tears down.
  telemetry::scoped_source tel_source_;
};

// --- segment replay ----------------------------------------------------------

/// Outcome of scanning one segment file.
struct segment_scan {
  lsn_t first_lsn = 0;        ///< from the header (0 if header invalid)
  lsn_t last_lsn = 0;         ///< last valid record seen (0 if none)
  std::uint64_t records = 0;  ///< valid records seen
  std::uint64_t applied = 0;  ///< records delivered to the callback
  std::uint64_t valid_bytes = 0;  ///< prefix length up to the last valid record
  bool header_ok = false;
  bool torn = false;  ///< scan stopped before EOF (short/corrupt record)
};

/// Scan `path`, delivering every valid record with lsn > `skip_upto` to
/// `apply(lsn, op, payload, len)`.  Stops cleanly at the first short read,
/// CRC mismatch, oversized length, or LSN discontinuity; everything before
/// the stop point is reported in the result.  Never throws on corruption --
/// a torn tail is data, not an error.
template <typename Fn>
segment_scan scan_segment(const std::string& path, lsn_t skip_upto,
                          Fn&& apply) {
  segment_scan out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;

  unsigned char h[kSegmentHeaderBytes];
  if (std::fread(h, 1, sizeof(h), f) != sizeof(h)) {
    out.torn = true;
    std::fclose(f);
    return out;
  }
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&magic, h, 8);
  std::memcpy(&version, h + 8, 4);
  std::memcpy(&out.first_lsn, h + 16, 8);
  std::memcpy(&stored_crc, h + kSegmentHeaderBytes - 4, 4);
  if (magic != kWalMagic || version != kWalVersion ||
      stored_crc != crc::crc32c_of(h, kSegmentHeaderBytes - 4)) {
    out.torn = true;
    out.first_lsn = 0;
    std::fclose(f);
    return out;
  }
  out.header_ok = true;
  out.valid_bytes = kSegmentHeaderBytes;

  lsn_t expect = out.first_lsn;
  std::vector<unsigned char> payload;
  for (;;) {
    unsigned char rh[kRecordHeaderBytes];
    const std::size_t got = std::fread(rh, 1, sizeof(rh), f);
    if (got != sizeof(rh)) {
      out.torn = got != 0;
      break;
    }
    std::uint32_t rec_crc = 0;
    std::uint32_t len = 0;
    lsn_t lsn = 0;
    std::memcpy(&rec_crc, rh, 4);
    std::memcpy(&len, rh + 4, 4);
    std::memcpy(&lsn, rh + 8, 8);
    const auto op = static_cast<wal_op>(rh[16]);
    if (len > kMaxRecordPayload || lsn != expect) {
      out.torn = true;
      break;
    }
    payload.resize(len);
    if (len > 0 && std::fread(payload.data(), 1, len, f) != len) {
      out.torn = true;
      break;
    }
    crc::crc32c crc;
    crc.update(rh + 4, kRecordHeaderBytes - 4);
    crc.update(payload.data(), len);
    if (crc.value() != rec_crc) {
      out.torn = true;
      break;
    }
    out.last_lsn = lsn;
    ++out.records;
    out.valid_bytes += kRecordHeaderBytes + len;
    ++expect;
    if (lsn > skip_upto) {
      apply(lsn, op, payload.data(), static_cast<std::size_t>(len));
      ++out.applied;
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace lfst::storage
