// durable_tree<T>: a skip-tree wrapped with WAL + checkpoint durability.
//
// The facade is apply-then-log: a mutation first runs against the in-memory
// lock-free tree, and -- only if it changed anything -- appends a record to
// the WAL and (under fsync_policy::every_commit) waits for its LSN to be
// durable before returning.  Two consequences worth stating plainly:
//
//   * WAL order is a valid linearization.  The append's LSN is assigned
//     inside the operation's invocation window (after the tree-level
//     linearization point, before the caller's return), so replaying the
//     log in LSN order yields a state the live tree could legitimately
//     have passed through.  Concurrent same-key writers may recover to a
//     DIFFERENT valid linearization than the one the in-memory tree
//     happened to take -- that is the standard contract for logging atop
//     a lock-free structure without a global ordering point.
//
//   * Reads are read-uncommitted with respect to durability: a reader can
//     observe a key whose add has applied but not yet fsynced.  If the
//     process dies in that window the key is gone after recovery.  Callers
//     needing read-your-durable-writes call flush() first.
//
// Effect-less mutations (add of a present key, remove of an absent one)
// log nothing and return immediately -- they cannot change recovered state.
//
// Checkpointing is automatic (a background thread watches bytes_appended
// against options().checkpoint_bytes and calls write_checkpoint) or manual
// via checkpoint().  Construction IS recovery: the constructor loads the
// newest valid checkpoint, replays the WAL tail, bulk-builds the tree from
// the recovered keys, and reopens the WAL at last_lsn + 1.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "skiptree/skip_tree.hpp"
#include "storage/checkpoint.hpp"
#include "storage/recovery.hpp"
#include "storage/wal.hpp"

namespace lfst::storage {

struct durable_options {
  wal_options wal{};
  skiptree::skip_tree_options tree{};
  /// Auto-checkpoint once this many bytes hit the WAL since the last one
  /// (0 disables the background checkpointer; checkpoint() still works).
  std::uint64_t checkpoint_bytes = 32ull << 20;
  std::size_t checkpoint_keep = 2;
  std::chrono::milliseconds checkpoint_poll{50};
};

template <typename T, typename Compare = std::less<T>>
class durable_tree {
 public:
  using tree_type = skiptree::skip_tree<T, Compare>;

  /// Open-or-recover: an empty/absent directory yields an empty tree; a
  /// crashed one yields exactly the acknowledged-durable state (plus any
  /// unacknowledged suffix that happened to reach the disk).
  explicit durable_tree(std::string dir,
                        durable_options opts = durable_options{})
      : opts_(opts) {
    // Reject bad tree options before recovery repairs the directory.
    skiptree::validate_options(opts_.tree);
    recovery_result<T> rec = recover<T, Compare>(dir, /*repair=*/true);
    recovered_ = rec_stats{rec.cp_lsn,          rec.last_lsn,
                           rec.replayed,        rec.checkpoints_skipped,
                           rec.torn_tail,       rec.us_checkpoint_load,
                           rec.us_replay,       rec.us_repair,
                           rec.us_total};
    if (rec.q_log2 > 0) opts_.tree.q_log2 = rec.q_log2;
    tree_.emplace(
        tree_type::from_sorted(std::span<const T>(rec.keys), opts_.tree));
    wal_.emplace(std::move(dir), rec.last_lsn + 1, opts_.wal);
    base_bytes_ = 0;
    if (opts_.checkpoint_bytes > 0) {
      checkpointer_ = std::thread([this] { checkpointer_main(); });
    }
  }

  durable_tree(const durable_tree&) = delete;
  durable_tree& operator=(const durable_tree&) = delete;

  ~durable_tree() { close(); }

  /// Insert; returns false (no logging) if an equivalent key was present.
  bool add(const T& key) {
    if (!tree_->add(key)) return false;
    commit(wal_op::add, key);
    return true;
  }

  /// Erase; returns false (no logging) if no equivalent key was present.
  bool remove(const T& key) {
    if (!tree_->remove(key)) return false;
    commit(wal_op::remove, key);
    return true;
  }

  /// Upsert: insert, or overwrite the stored representation of an
  /// equivalent key (the usual "value update" for struct keys compared by
  /// a field).  Always logs -- replay applies it as insert-or-assign.
  void put(const T& key) {
    for (;;) {
      if (tree_->add(key)) break;
      if (tree_->replace(key)) break;
      // Lost both races (key vanished between add and replace): retry.
    }
    commit(wal_op::put, key);
  }

  bool contains(const T& key) const { return tree_->contains(key); }
  std::size_t size() const { return tree_->size(); }
  const tree_type& tree() const noexcept { return *tree_; }

  /// Everything acknowledged before this call is on disk when it returns.
  void flush() { wal_->flush(); }

  /// Take a checkpoint now (also truncates the replay tail).
  checkpoint_result checkpoint() {
    std::lock_guard<std::mutex> g(cp_mu_);
    auto r = write_checkpoint<T>(*tree_, opts_.tree.q_log2, *wal_,
                                 opts_.checkpoint_keep);
    base_bytes_ = wal_->bytes_appended();
    return r;
  }

  /// Clean shutdown: final fsync, stop the checkpointer, close the WAL.
  /// Reopening after close() replays only the tail since the last
  /// checkpoint -- identical to crash recovery, just with nothing torn.
  void close() {
    bool expected = false;
    if (!closing_.compare_exchange_strong(expected, true)) return;
    if (checkpointer_.joinable()) {
      {
        std::lock_guard<std::mutex> g(cp_wake_mu_);
        cp_wake_.notify_all();
      }
      checkpointer_.join();
    }
    if (wal_) wal_->close();
  }

  struct rec_stats {
    lsn_t cp_lsn = 0;
    lsn_t last_lsn = 0;
    std::uint64_t replayed = 0;
    std::uint64_t checkpoints_skipped = 0;
    bool torn_tail = false;
    // Recovery phase timings (see recovery_result).
    double us_checkpoint_load = 0.0;
    double us_replay = 0.0;
    double us_repair = 0.0;
    double us_total = 0.0;
  };
  const rec_stats& recovery_stats() const noexcept { return recovered_; }
  wal_stats log_stats() const noexcept { return wal_->stats(); }
  const durable_options& options() const noexcept { return opts_; }

 private:
  void commit(wal_op op, const T& key) {
    static_assert(std::is_trivially_copyable_v<T>);
    // The commit span covers append -> durable ack: what a caller actually
    // waits for (group-commit parking included), not just the fsync
    // syscall the WAL times separately.
    LFST_SPAN(wal_commit);
    const lsn_t lsn = wal_->append(op, &key, sizeof(T));
    if (opts_.wal.sync == fsync_policy::every_commit) {
      wal_->wait_durable(lsn);
    }
  }

  void checkpointer_main() {
    while (!closing_.load(std::memory_order_acquire)) {
      {
        std::unique_lock<std::mutex> lk(cp_wake_mu_);
        cp_wake_.wait_for(lk, opts_.checkpoint_poll, [&] {
          return closing_.load(std::memory_order_acquire);
        });
      }
      if (closing_.load(std::memory_order_acquire)) return;
      if (wal_->bytes_appended() - base_bytes_ >= opts_.checkpoint_bytes) {
        checkpoint();
      }
    }
  }

  durable_options opts_;
  std::optional<tree_type> tree_;
  std::optional<wal> wal_;
  rec_stats recovered_;

  std::mutex cp_mu_;
  std::uint64_t base_bytes_ = 0;

  std::atomic<bool> closing_{false};
  std::mutex cp_wake_mu_;
  std::condition_variable cp_wake_;
  std::thread checkpointer_;
};

}  // namespace lfst::storage
