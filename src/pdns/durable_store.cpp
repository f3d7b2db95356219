#include "pdns/durable_store.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "pdns/frame_view.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"

namespace nxd::pdns {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Which chain files any decodable manifest still references.  Files outside
/// this set are orphans: leftovers of a checkpoint that died before its
/// manifest committed, or of an interrupted cleanup.
struct ChainRefs {
  bool any_manifest_decodable = false;
  std::set<std::uint64_t> bases;
  std::set<std::pair<std::uint64_t, std::uint32_t>> deltas;
};

ChainRefs collect_chain_refs(const std::string& dir) {
  ChainRefs refs;
  for (const auto& [frontier, path] : list_manifests(dir)) {
    const auto m = load_manifest_file(path);
    if (!m || m->frontier != frontier) continue;
    refs.any_manifest_decodable = true;
    if (m->base_batches > 0) refs.bases.insert(m->base_batches);
    for (const auto& d : m->deltas) refs.deltas.insert({d.frontier, d.shard});
  }
  return refs;
}

std::uint64_t count_orphaned_chain_files(const std::string& dir,
                                         const ChainRefs& refs) {
  std::uint64_t orphans = 0;
  for (const auto& d : list_deltas(dir)) {
    if (!refs.deltas.contains({d.frontier, d.shard})) ++orphans;
  }
  // Without any manifest, bare snapshots are the legacy layout, not orphans.
  if (refs.any_manifest_decodable) {
    for (const auto& [batches, path] : list_bases(dir)) {
      if (!refs.bases.contains(batches)) ++orphans;
    }
  }
  return orphans;
}

}  // namespace

// ================================================================== Core ====

struct DurableStore::Core {
  // Lock order (strict hierarchy, always acquired downward):
  //   queue_mutex  →  (never nests)          submission queue + watermarks
  //   apply_mutex  →  chain_mutex  →  base_mutex  →  metrics_mutex
  // apply_mutex guards the live tail and the committed frontier (writer
  // thread / sync caller mutates, materialize() reads); chain_mutex the
  // in-flight checkpoint jobs; base_mutex the folded base image and the
  // manifest lineage; metrics_mutex the registry handles.

  struct ControlState {
    bool done = false;  // guarded by queue_mutex
  };
  struct Pending {
    std::uint64_t seq = 0;  // 0 for control messages
    std::vector<std::uint8_t> frame;
    std::shared_ptr<ControlState> control;  // set == checkpoint request
  };
  struct CheckpointJob {
    std::uint64_t frontier = 0;
    std::uint64_t wal_floor_segment = 0;  // first segment with seq > frontier
    std::vector<PassiveDnsStore> shards;  // frozen copy-on-checkpoint tail
    bool compact = false;
  };

  Core(std::string d, Config cfg, util::CrashPoint* cp)
      : dir(std::move(d)),
        config(cfg),
        crash(cp),
        tail(cfg.shard_count, cfg.store),
        pool(std::make_unique<util::WorkerPool>(
            cfg.shard_count > 1 ? cfg.shard_count : 0)),
        base(cfg.store) {}

  ~Core() { shutdown(); }

  // ---- identity / configuration -----------------------------------------
  std::string dir;
  Config config;
  util::CrashPoint* crash = nullptr;
  std::atomic<bool> ok{true};
  RecoveryInfo recovery;

  // ---- submission queue ---------------------------------------------------
  std::mutex queue_mutex;
  std::condition_variable queue_cv;  // wakes the writer
  std::condition_variable done_cv;   // wakes riders
  std::deque<std::shared_ptr<Pending>> queue;
  std::uint64_t next_seq = 1;   // assigned at submission
  std::uint64_t done_seq = 0;   // highest seq decided (acked or failed)
  std::uint64_t acked_seq = 0;  // highest seq durably acked
  bool closing = false;
  bool writer_busy = false;

  // ---- applied state (apply_mutex) ----------------------------------------
  std::mutex apply_mutex;
  ShardedStore tail;
  std::unique_ptr<util::WorkerPool> pool;
  std::atomic<std::uint64_t> committed{0};  // written under apply_mutex
  std::uint64_t since_delta = 0;
  std::uint64_t rounds_since_compact = 0;
  std::optional<Wal> wal;  // owned by the writer thread (or the sync caller)

  // ---- checkpoint pipeline (chain_mutex / base_mutex) ---------------------
  std::mutex chain_mutex;
  std::deque<std::shared_ptr<CheckpointJob>> jobs;  // not yet folded into base
  std::mutex base_mutex;
  PassiveDnsStore base;
  Manifest current;  // newest durable manifest (default = empty frontier 0)
  std::optional<Manifest> previous;  // retained single-fault fallback
  std::atomic<std::uint64_t> checkpoints{0};
  std::unique_ptr<util::SerialWorker> ckpt;
  std::thread writer;

  // ---- observability (metrics_mutex) --------------------------------------
  struct Metrics {
    obs::Counter wal_batches;
    obs::Counter wal_failures;
    obs::Counter wal_groups;
    obs::Counter checkpoints;
    obs::Counter deltas;
    obs::Counter compactions;
    obs::LatencyHistogram group_batches;
  };
  std::mutex metrics_mutex;
  Metrics m;  // null handles until bind_metrics()
  obs::MetricsRegistry* registry = nullptr;
  obs::SpanTracer* spans = nullptr;
  // Span timestamps are nanoseconds since store open (steady clock) — the
  // store runs on real threads, so unlike the sim-driven layers its spans
  // carry wall durations and only their nesting is asserted by tests.
  Clock::time_point opened = Clock::now();

  std::int64_t span_ns(Clock::time_point t) const {
    return static_cast<std::int64_t>(ns_between(opened, t));
  }

  // ---- stage accounting (atomics, read by stage_stats) --------------------
  std::atomic<std::uint64_t> stat_groups{0};
  std::atomic<std::uint64_t> stat_batches{0};
  std::atomic<std::uint64_t> stat_observations{0};
  std::atomic<std::uint64_t> stat_append_ns{0};
  std::atomic<std::uint64_t> stat_fsync_ns{0};
  std::atomic<std::uint64_t> stat_apply_ns{0};
  std::atomic<std::uint64_t> stat_checkpoint_ns{0};
  std::atomic<std::uint64_t> stat_deltas{0};
  std::atomic<std::uint64_t> stat_compactions{0};
  std::array<std::atomic<std::uint64_t>, 18> stat_group_hist{};

  // ------------------------------------------------------------- lifecycle
  bool recover();
  void start() {
    ckpt = std::make_unique<util::SerialWorker>(config.synchronous);
    if (!config.synchronous) {
      writer = std::thread([this] { writer_loop(); });
    }
  }
  void shutdown() {
    if (writer.joinable()) {
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        closing = true;
      }
      queue_cv.notify_all();
      writer.join();
    }
    ckpt.reset();  // drains queued checkpoint jobs, then joins
  }

  // ------------------------------------------------------------ operations
  std::uint64_t submit(std::vector<std::uint8_t> frame);
  bool wait_for(std::uint64_t ticket);
  bool wait_all();
  bool request_checkpoint();
  PassiveDnsStore do_materialize();
  void do_bind(obs::MetricsRegistry& reg);
  StageStats snapshot_stats() const;

  // ------------------------------------------------------------- internals
  void writer_loop();
  void commit_group(std::span<const std::shared_ptr<Pending>> group);
  void maybe_trigger_delta();           // apply_mutex held
  void trigger_checkpoint(bool compact);  // apply_mutex held
  void run_checkpoint(std::shared_ptr<CheckpointJob> job);
  void cleanup_retired();
};

// ------------------------------------------------------------------ recover

bool DurableStore::Core::recover() {
  // 1. Newest manifest whose whole chain validates pins the frontier.  A
  //    corrupt manifest/base/delta skips to the previous manifest — whose
  //    WAL floor is still retained, so the skipped batches replay instead
  //    of being lost.
  bool manifest_present = false;
  bool restored = false;
  std::uint64_t skipped_newer = 0;
  for (const auto& [frontier, path] : list_manifests(dir)) {
    manifest_present = true;
    const auto m = load_manifest_file(path);
    if (!m || m->frontier != frontier) {
      ++recovery.invalid_manifests;
      ++skipped_newer;
      continue;
    }
    PassiveDnsStore candidate(config.store);
    bool chain_ok = true;
    std::uint64_t absorbed = 0;
    if (m->base_batches > 0) {
      auto loaded = load_base_file(base_path(dir, m->base_batches));
      if (loaded && loaded->batches == m->base_batches) {
        candidate = std::move(loaded->store);
      } else {
        chain_ok = false;
        ++recovery.corrupt_chain_files;
      }
    }
    if (chain_ok) {
      for (const auto& d : m->deltas) {
        auto delta = load_delta_file(delta_path(dir, d.frontier, d.shard),
                                     d.frontier, d.shard);
        if (!delta) {
          chain_ok = false;
          ++recovery.corrupt_chain_files;
          break;
        }
        candidate.absorb(*delta);
        ++absorbed;
      }
    }
    if (!chain_ok) {
      ++recovery.invalid_manifests;
      ++skipped_newer;
      continue;
    }
    base = std::move(candidate);
    committed.store(m->frontier, std::memory_order_relaxed);
    current = *m;
    recovery.snapshot_loaded = true;
    recovery.snapshot_batches = m->frontier;
    recovery.deltas_absorbed = absorbed;
    restored = true;
    break;
  }
  recovery.frontier_degraded = restored ? skipped_newer > 0 : manifest_present;

  if (restored) {
    // Re-pin the retention fallback: the newest older manifest from a
    // different base lineage (cleanup kept it on disk exactly for this).
    // Without it, the first post-recovery checkpoint would truncate the WAL
    // up to the current lineage and re-open the shared-base fault window.
    for (const auto& [frontier, path] : list_manifests(dir)) {
      if (frontier >= current.frontier) continue;
      const auto m = load_manifest_file(path);
      if (!m || m->frontier != frontier) continue;
      if (m->base_batches == current.base_batches) continue;
      previous = *m;
      break;
    }
  }

  if (!restored) {
    // No usable manifest.  The newest valid full base alone is still an
    // exact prefix: legacy directories have no manifests at all, and a
    // multi-fault directory degrades here (the replay contiguity guard
    // below keeps the result a prefix even then).
    for (const auto& [batches, path] : list_bases(dir)) {
      if (auto loaded = load_base_file(path);
          loaded && loaded->batches == batches) {
        base = std::move(loaded->store);
        committed.store(batches, std::memory_order_relaxed);
        current = Manifest{batches, batches, 0, {}};
        recovery.snapshot_loaded = true;
        recovery.snapshot_batches = batches;
        break;
      }
      ++recovery.invalid_snapshots;
    }
  }

  // 2. Strict, zero-copy WAL tail replay on top of the frontier.
  auto replay = Wal::replay(dir);
  recovery.discarded_wal_bytes = replay.discarded_bytes;
  recovery.wal_tail_truncated = replay.tail_truncated;
  for (auto& replayed : replay.batches) {
    const std::uint64_t at = committed.load(std::memory_order_relaxed);
    if (replayed.seq <= at) {
      ++recovery.stale_batches_skipped;
      continue;
    }
    if (replayed.seq != at + 1) {
      // seq jumped past the frontier: retention was violated by multiple
      // independent faults.  Applying across the gap would yield a
      // non-prefix state, so stop here — still exact, just shorter.
      recovery.wal_gap_detected = true;
      break;
    }
    const std::span<const std::uint8_t> frame(replayed.frame);
    tail.ingest_frames(std::span<const std::span<const std::uint8_t>>(&frame, 1),
                       *pool);
    committed.store(replayed.seq, std::memory_order_relaxed);
    ++recovery.replayed_batches;
    ++since_delta;
  }

  // 3. Sweep leftover atomic-commit temporaries: a `.tmp` is by definition
  //    an uncommitted write that died before its rename, so deleting it can
  //    never lose acked data.  No crash hook — a death mid-sweep just leaves
  //    files for the next open to sweep again.  Orphaned chain files (a
  //    checkpoint that died before its manifest) are counted but kept; the
  //    next successful checkpoint's cleanup retires them.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().extension().string() == ".tmp") {
      if (std::filesystem::remove(entry.path(), ec)) {
        ++recovery.removed_tmp_files;
      }
    }
  }
  recovery.orphaned_chain_files =
      count_orphaned_chain_files(dir, collect_chain_refs(dir));

  // 4. New batches go to a fresh segment past everything on disk; a torn
  //    tail segment is never appended to.
  std::uint64_t next_segment = 0;
  const auto segments = Wal::list_segments(dir);
  if (!segments.empty()) next_segment = segments.back().first + 1;
  const std::uint64_t frontier = committed.load(std::memory_order_relaxed);
  wal = Wal::create(dir, config.wal, next_segment, frontier + 1, crash);
  if (!wal) return false;
  next_seq = frontier + 1;
  done_seq = frontier;
  acked_seq = frontier;
  return true;
}

// --------------------------------------------------------------- submission

std::uint64_t DurableStore::Core::submit(std::vector<std::uint8_t> frame) {
  if (!ok.load(std::memory_order_relaxed)) return 0;
  auto pending = std::make_shared<Pending>();
  pending->frame = std::move(frame);
  if (config.synchronous) {
    // Inline group of one: the identical commit protocol, deterministic
    // file-op ordering for the crash harness.
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      pending->seq = next_seq++;
    }
    const std::shared_ptr<Pending> group[1] = {pending};
    commit_group(std::span<const std::shared_ptr<Pending>>(group, 1));
    return pending->seq;
  }
  std::uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    if (closing) return 0;
    pending->seq = next_seq++;
    ticket = pending->seq;
    queue.push_back(std::move(pending));
  }
  queue_cv.notify_one();
  return ticket;
}

bool DurableStore::Core::wait_for(std::uint64_t ticket) {
  if (ticket == 0) return false;
  std::unique_lock<std::mutex> lock(queue_mutex);
  done_cv.wait(lock, [&] { return done_seq >= ticket; });
  return ticket <= acked_seq;
}

bool DurableStore::Core::wait_all() {
  std::unique_lock<std::mutex> lock(queue_mutex);
  const std::uint64_t last = next_seq - 1;
  done_cv.wait(lock, [&] { return done_seq >= last; });
  return acked_seq >= last;
}

bool DurableStore::Core::request_checkpoint() {
  if (!ok.load(std::memory_order_relaxed)) return false;
  if (config.synchronous) {
    {
      std::lock_guard<std::mutex> lock(apply_mutex);
      trigger_checkpoint(/*compact=*/true);  // runs inline (SerialWorker)
    }
    return ok.load(std::memory_order_relaxed);
  }
  auto control = std::make_shared<ControlState>();
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    if (closing) return false;
    auto pending = std::make_shared<Pending>();
    pending->control = control;
    queue.push_back(std::move(pending));
  }
  queue_cv.notify_one();
  {
    std::unique_lock<std::mutex> lock(queue_mutex);
    done_cv.wait(lock, [&] { return control->done; });
  }
  // The writer triggered the hand-off; wait for the manifest to land.
  ckpt->drain();
  return ok.load(std::memory_order_relaxed);
}

// -------------------------------------------------------------- writer loop

void DurableStore::Core::writer_loop() {
  std::vector<std::shared_ptr<Pending>> group;
  for (;;) {
    group.clear();
    std::shared_ptr<Pending> control;
    {
      std::unique_lock<std::mutex> lock(queue_mutex);
      queue_cv.wait(lock, [&] { return closing || !queue.empty(); });
      if (queue.empty() && closing) return;
      if (queue.front()->control != nullptr) {
        control = queue.front();
        queue.pop_front();
      } else {
        // Form a group: everything already queued, bounded by the window.
        // With a linger deadline, wait for stragglers; by default commit
        // immediately — riders coalesce naturally while the previous
        // group's fsync is in flight.
        std::uint64_t bytes = 0;
        const auto deadline =
            Clock::now() +
            std::chrono::microseconds(config.group_window.linger_us);
        for (;;) {
          while (!queue.empty() && queue.front()->control == nullptr &&
                 group.size() < config.group_window.max_batches &&
                 bytes < config.group_window.max_bytes) {
            bytes += queue.front()->frame.size();
            group.push_back(std::move(queue.front()));
            queue.pop_front();
          }
          if (closing || !queue.empty() || config.group_window.linger_us == 0 ||
              group.size() >= config.group_window.max_batches ||
              bytes >= config.group_window.max_bytes) {
            break;
          }
          if (!queue_cv.wait_until(lock, deadline, [&] {
                return closing || !queue.empty();
              })) {
            break;  // linger expired; commit what we have
          }
        }
      }
      writer_busy = true;
    }
    if (control != nullptr) {
      {
        std::lock_guard<std::mutex> lock(apply_mutex);
        trigger_checkpoint(/*compact=*/true);
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        control->control->done = true;
        writer_busy = false;
      }
      done_cv.notify_all();
      continue;
    }
    commit_group(group);
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      writer_busy = false;
    }
    done_cv.notify_all();
  }
}

void DurableStore::Core::commit_group(
    std::span<const std::shared_ptr<Pending>> group) {
  bool committed_ok = ok.load(std::memory_order_relaxed);

  // Stage 1+2: append every record, pay ONE durability barrier for all.
  const auto t0 = Clock::now();
  if (committed_ok) {
    for (const auto& pending : group) {
      if (!wal->append_frame(pending->frame)) {
        committed_ok = false;
        break;
      }
    }
  }
  const auto t1 = Clock::now();
  if (committed_ok && !wal->sync()) committed_ok = false;
  const auto t2 = Clock::now();

  // Stage 3: durable — apply the whole group zero-copy and advance the
  // frontier.  The in-memory fold cannot fail.
  std::uint64_t group_obs = 0;
  if (committed_ok) {
    std::lock_guard<std::mutex> lock(apply_mutex);
    std::vector<std::span<const std::uint8_t>> frames;
    frames.reserve(group.size());
    for (const auto& pending : group) frames.emplace_back(pending->frame);
    const auto stats = tail.ingest_frames(
        std::span<const std::span<const std::uint8_t>>(frames), *pool);
    group_obs = stats.observations;
    committed.store(group.back()->seq, std::memory_order_relaxed);
    since_delta += group.size();
  } else {
    ok.store(false, std::memory_order_relaxed);
  }
  const auto t3 = Clock::now();

  // Stage 4: checkpoint hand-off (rotate + freeze the tail), off the books
  // of the apply stage.
  if (committed_ok) {
    std::lock_guard<std::mutex> lock(apply_mutex);
    maybe_trigger_delta();
  }
  const auto t4 = Clock::now();

  stat_append_ns.fetch_add(ns_between(t0, t1), std::memory_order_relaxed);
  stat_fsync_ns.fetch_add(ns_between(t1, t2), std::memory_order_relaxed);
  stat_apply_ns.fetch_add(ns_between(t2, t3), std::memory_order_relaxed);
  stat_checkpoint_ns.fetch_add(ns_between(t3, t4), std::memory_order_relaxed);
  stat_groups.fetch_add(1, std::memory_order_relaxed);
  stat_batches.fetch_add(group.size(), std::memory_order_relaxed);
  stat_observations.fetch_add(group_obs, std::memory_order_relaxed);
  const auto bucket = std::min<std::size_t>(
      stat_group_hist.size() - 1,
      static_cast<std::size_t>(std::bit_width(group.size())) - 1);
  stat_group_hist[bucket].fetch_add(1, std::memory_order_relaxed);

  obs::SpanTracer* sp = nullptr;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex);
    sp = spans;
    if (committed_ok) {
      m.wal_batches.inc(group.size());
      m.wal_groups.inc();
      m.group_batches.observe(group.size());
    } else {
      m.wal_failures.inc(group.size());
    }
  }
  if (sp != nullptr && committed_ok) {
    // One trace per commit group, keyed by the group's last seq; the stage
    // children reuse the t0..t4 stage boundaries the ns counters record.
    const obs::SpanId root =
        sp->trace_root(group.back()->seq, "wal_group", span_ns(t0));
    if (root.sampled()) {
      obs::SpanId s = sp->begin(root, "wal_append", span_ns(t0));
      sp->end(s, span_ns(t1), static_cast<std::int64_t>(group.size()));
      s = sp->begin(root, "wal_fsync", span_ns(t1));
      sp->end(s, span_ns(t2));
      s = sp->begin(root, "wal_apply", span_ns(t2));
      sp->end(s, span_ns(t3), static_cast<std::int64_t>(group_obs));
      s = sp->begin(root, "ckpt_handoff", span_ns(t3));
      sp->end(s, span_ns(t4));
    }
    sp->end(root, span_ns(t4), static_cast<std::int64_t>(group.size()));
  }

  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    done_seq = group.back()->seq;
    if (committed_ok) acked_seq = group.back()->seq;
  }
  done_cv.notify_all();
}

// -------------------------------------------------------------- checkpoints

void DurableStore::Core::maybe_trigger_delta() {
  if (!ok.load(std::memory_order_relaxed)) return;
  if (config.delta_every_batches == 0) return;
  if (since_delta < config.delta_every_batches) return;
  {
    std::lock_guard<std::mutex> lock(chain_mutex);
    // The previous round is still serializing: don't stack frozen tails —
    // the debt simply accrues into the next hand-off (fsck reports it).
    if (!jobs.empty()) return;
  }
  const bool compact = config.compact_every_deltas != 0 &&
                       rounds_since_compact + 1 >= config.compact_every_deltas;
  trigger_checkpoint(compact);
}

void DurableStore::Core::trigger_checkpoint(bool compact) {
  if (!ok.load(std::memory_order_relaxed)) return;
  // Rotate first so the fresh live segment only ever holds seq > frontier —
  // that segment index is the manifest's WAL floor.
  if (!wal->rotate()) {
    ok.store(false, std::memory_order_relaxed);
    return;
  }
  auto job = std::make_shared<CheckpointJob>();
  job->frontier = committed.load(std::memory_order_relaxed);
  job->wal_floor_segment = wal->segment_index();
  job->shards = tail.take_shards();  // copy-on-checkpoint: tail is now fresh
  job->compact = compact;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex);
    if (registry != nullptr) tail.bind_metrics(*registry);
  }
  since_delta = 0;
  rounds_since_compact = compact ? 0 : rounds_since_compact + 1;
  {
    std::lock_guard<std::mutex> lock(chain_mutex);
    jobs.push_back(job);
  }
  ckpt->submit([this, job] { run_checkpoint(std::move(job)); });
}

void DurableStore::Core::run_checkpoint(std::shared_ptr<CheckpointJob> job) {
  const auto t0 = Clock::now();
  bool job_ok = ok.load(std::memory_order_relaxed);

  // 1. One delta file per non-empty shard, each an atomic commit.  Shards
  //    checkpoint independently: a crash between two deltas leaves orphans,
  //    never a partial image (no manifest references them yet).  A compaction
  //    round skips the deltas — its full base image supersedes them.
  std::vector<ManifestDelta> written;
  if (job_ok && !job->compact) {
    for (std::uint32_t s = 0; s < job->shards.size(); ++s) {
      const auto& shard = job->shards[s];
      if (shard.total_observations() == 0) continue;
      const auto payload = encode_delta_payload(job->frontier, s, shard);
      if (!util::write_file_atomic(delta_path(dir, job->frontier, s), payload,
                                   crash)) {
        job_ok = false;
        break;
      }
      written.push_back({job->frontier, s});
      stat_deltas.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!job_ok) {
    // Disk acceleration failed; the job stays queued so materialize() still
    // sees its data, and recovery replays it from the WAL (whose floor only
    // moves after a manifest commits).
    ok.store(false, std::memory_order_relaxed);
    stat_checkpoint_ns.fetch_add(ns_between(t0, Clock::now()),
                                 std::memory_order_relaxed);
    return;
  }

  // 2. Fold the frozen shards into the in-memory base and retire the job —
  //    atomically with respect to materialize(), which reads jobs + base
  //    under the same locks.
  Manifest next;
  {
    std::lock_guard<std::mutex> chain_lock(chain_mutex);
    std::lock_guard<std::mutex> base_lock(base_mutex);
    for (const auto& shard : job->shards) base.absorb(shard);
    jobs.pop_front();  // FIFO: this job is necessarily the front
    next = current;
  }
  next.frontier = job->frontier;
  next.wal_floor_segment = job->wal_floor_segment;
  next.deltas.insert(next.deltas.end(), written.begin(), written.end());

  // 3. Compaction folds the chain into a fresh full base image.  Only this
  //    thread ever mutates `base`, so serializing it without the lock is
  //    safe (concurrent materialize() only reads, under base_mutex).
  if (job->compact) {
    next.deltas.clear();
    next.base_batches = job->frontier;
    if (job->frontier > 0) {
      const auto payload = encode_base_payload(job->frontier, base);
      if (!util::write_file_atomic(base_path(dir, job->frontier), payload,
                                   crash)) {
        ok.store(false, std::memory_order_relaxed);
        stat_checkpoint_ns.fetch_add(ns_between(t0, Clock::now()),
                                     std::memory_order_relaxed);
        return;
      }
    }
    stat_compactions.fetch_add(1, std::memory_order_relaxed);
  }

  // 4. The manifest commit IS the checkpoint: after this rename the new
  //    frontier exists; before it, recovery uses the previous one.
  if (!util::write_file_atomic(manifest_path(dir, next.frontier),
                               next.encode(), crash)) {
    ok.store(false, std::memory_order_relaxed);
    stat_checkpoint_ns.fetch_add(ns_between(t0, Clock::now()),
                                 std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> chain_lock(chain_mutex);
    std::lock_guard<std::mutex> base_lock(base_mutex);
    // `previous` tracks the newest manifest of the PRIOR base lineage, not
    // merely the previous commit: consecutive delta manifests share their
    // base file, so "keep the last two manifests" alone would leave a
    // single corrupt base able to void both.  Holding the last
    // distinct-base manifest (and WAL back to its floor) keeps every
    // single-file corruption — manifest, delta, or base — fully
    // recoverable.
    if (!previous.has_value() || next.base_batches != current.base_batches) {
      previous = current;
    }
    current = next;
  }
  const std::uint64_t taken =
      checkpoints.fetch_add(1, std::memory_order_relaxed) + 1;
  obs::SpanTracer* sp = nullptr;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex);
    sp = spans;
    m.checkpoints.inc();
    m.deltas.inc(written.size());
    if (job->compact) m.compactions.inc();
  }
  if (sp != nullptr) {
    // Emitted retroactively once the manifest commit lands; failed rounds
    // (collector marked dead above) carry no span.
    const obs::SpanId root = sp->trace_root(
        taken, "checkpoint", span_ns(t0), job->compact ? "compact" : "delta");
    sp->end(root, span_ns(Clock::now()),
            static_cast<std::int64_t>(next.frontier));
  }

  // 5. Retention: keep the current and previous manifests (and everything
  //    they reference); WAL segments truncate only below the OLDER kept
  //    floor, so a corrupt newest manifest always degrades to the previous
  //    frontier plus a longer replay — never to loss.
  cleanup_retired();
  stat_checkpoint_ns.fetch_add(ns_between(t0, Clock::now()),
                               std::memory_order_relaxed);
}

void DurableStore::Core::cleanup_retired() {
  Manifest cur;
  std::optional<Manifest> prev;
  {
    std::lock_guard<std::mutex> chain_lock(chain_mutex);
    std::lock_guard<std::mutex> base_lock(base_mutex);
    cur = current;
    prev = previous;
  }
  const auto keep_manifest = [&](std::uint64_t frontier) {
    return frontier == cur.frontier ||
           (prev.has_value() && frontier == prev->frontier);
  };
  const auto keep_base = [&](std::uint64_t batches) {
    return (cur.base_batches != 0 && batches == cur.base_batches) ||
           (prev.has_value() && prev->base_batches != 0 &&
            batches == prev->base_batches);
  };
  const auto keep_delta = [&](std::uint64_t frontier, std::uint32_t shard) {
    const ManifestDelta want{frontier, shard};
    const auto in = [&](const Manifest& man) {
      return std::find(man.deltas.begin(), man.deltas.end(), want) !=
             man.deltas.end();
    };
    return in(cur) || (prev.has_value() && in(*prev));
  };
  for (const auto& [frontier, path] : list_manifests(dir)) {
    if (keep_manifest(frontier)) continue;
    if (!util::remove_file(path, crash)) {
      ok.store(false, std::memory_order_relaxed);
      return;
    }
  }
  for (const auto& [batches, path] : list_bases(dir)) {
    if (keep_base(batches)) continue;
    if (!util::remove_file(path, crash)) {
      ok.store(false, std::memory_order_relaxed);
      return;
    }
  }
  for (const auto& delta : list_deltas(dir)) {
    if (keep_delta(delta.frontier, delta.shard)) continue;
    if (!util::remove_file(delta.path, crash)) {
      ok.store(false, std::memory_order_relaxed);
      return;
    }
  }
  const std::uint64_t floor =
      prev.has_value()
          ? std::min(prev->wal_floor_segment, cur.wal_floor_segment)
          : cur.wal_floor_segment;
  if (!Wal::drop_segments_below(dir, floor, crash)) {
    ok.store(false, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------------- observations

PassiveDnsStore DurableStore::Core::do_materialize() {
  std::lock_guard<std::mutex> apply_lock(apply_mutex);
  std::lock_guard<std::mutex> chain_lock(chain_mutex);
  std::lock_guard<std::mutex> base_lock(base_mutex);
  PassiveDnsStore out = base;
  for (const auto& job : jobs) {
    for (const auto& shard : job->shards) out.absorb(shard);
  }
  out.absorb(tail.merge());
  return out;
}

void DurableStore::Core::do_bind(obs::MetricsRegistry& reg) {
  std::lock_guard<std::mutex> apply_lock(apply_mutex);
  std::lock_guard<std::mutex> lock(metrics_mutex);
  m.wal_batches = reg.counter("nxd_pdns_wal_batches_total",
                              "Batches durably acked by the WAL");
  m.wal_failures = reg.counter("nxd_pdns_wal_append_failures_total",
                               "WAL appends that failed (collector dead)");
  m.wal_groups = reg.counter("nxd_pdns_wal_groups_total",
                             "Commit groups fsynced (one barrier each)");
  m.checkpoints =
      reg.counter("nxd_pdns_checkpoints_total", "Checkpoints committed");
  m.deltas = reg.counter("nxd_pdns_delta_checkpoints_total",
                         "Per-shard delta checkpoint files written");
  m.compactions = reg.counter("nxd_pdns_compactions_total",
                              "Delta chains folded into a fresh base");
  m.group_batches = reg.histogram("nxd_pdns_wal_group_batches",
                                  "Batches coalesced per commit group");
  m.wal_batches.inc(committed.load(std::memory_order_relaxed));
  m.checkpoints.inc(checkpoints.load(std::memory_order_relaxed));
  registry = &reg;
  // The tail provides the per-shard observation counters and the batch-size
  // histogram; re-bound after every checkpoint hand-off (the tail shards
  // are replaced there).
  tail.bind_metrics(reg);
}

DurableStore::StageStats DurableStore::Core::snapshot_stats() const {
  StageStats out;
  out.groups = stat_groups.load(std::memory_order_relaxed);
  out.batches = stat_batches.load(std::memory_order_relaxed);
  out.observations = stat_observations.load(std::memory_order_relaxed);
  out.append_ns = stat_append_ns.load(std::memory_order_relaxed);
  out.fsync_ns = stat_fsync_ns.load(std::memory_order_relaxed);
  out.apply_ns = stat_apply_ns.load(std::memory_order_relaxed);
  out.checkpoint_ns = stat_checkpoint_ns.load(std::memory_order_relaxed);
  out.deltas_written = stat_deltas.load(std::memory_order_relaxed);
  out.compactions = stat_compactions.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < out.group_size_log2.size(); ++i) {
    out.group_size_log2[i] = stat_group_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

// =========================================================== DurableStore ===

DurableStore::DurableStore(std::unique_ptr<Core> core)
    : core_(std::move(core)) {}
DurableStore::DurableStore(DurableStore&&) noexcept = default;
DurableStore& DurableStore::operator=(DurableStore&&) noexcept = default;
DurableStore::~DurableStore() = default;

std::string DurableStore::snapshot_path(const std::string& dir,
                                        std::uint64_t batches) {
  return base_path(dir, batches);
}

std::optional<DurableStore> DurableStore::open(std::string dir, Config config,
                                               util::CrashPoint* crash) {
  config.shard_count = std::clamp<std::size_t>(config.shard_count, 1,
                                               ShardedStore::kMaxShards);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return std::nullopt;
  auto core = std::make_unique<Core>(std::move(dir), config, crash);
  if (!core->recover()) return std::nullopt;
  core->start();
  return DurableStore(std::move(core));
}

bool DurableStore::ok() const noexcept {
  return core_->ok.load(std::memory_order_relaxed);
}
const std::string& DurableStore::dir() const noexcept { return core_->dir; }
const DurableStore::Config& DurableStore::config() const noexcept {
  return core_->config;
}
const DurableStore::RecoveryInfo& DurableStore::recovery() const noexcept {
  return core_->recovery;
}
std::uint64_t DurableStore::committed_batches() const noexcept {
  return core_->committed.load(std::memory_order_relaxed);
}
std::uint64_t DurableStore::checkpoints_taken() const noexcept {
  return core_->checkpoints.load(std::memory_order_relaxed);
}

bool DurableStore::ingest_batch(std::span<const Observation> batch) {
  return core_->wait_for(core_->submit(encode_batch_frame(batch)));
}

bool DurableStore::ingest_frame(std::span<const std::uint8_t> frame) {
  return core_->wait_for(submit_frame(frame));
}

std::uint64_t DurableStore::submit_batch(std::span<const Observation> batch) {
  return core_->submit(encode_batch_frame(batch));
}

std::uint64_t DurableStore::submit_frame(std::span<const std::uint8_t> frame) {
  // Reject-whole before the log: an invalid frame in a WAL record would
  // read as corruption on replay and truncate everything after it.
  if (!FrameView::parse(frame)) return 0;
  return core_->submit(std::vector<std::uint8_t>(frame.begin(), frame.end()));
}

bool DurableStore::wait_batch(std::uint64_t ticket) {
  return core_->wait_for(ticket);
}

bool DurableStore::wait_durable() { return core_->wait_all(); }

bool DurableStore::checkpoint() { return core_->request_checkpoint(); }

PassiveDnsStore DurableStore::materialize() const {
  return core_->do_materialize();
}

std::vector<std::uint8_t> DurableStore::snapshot_bytes() const {
  return save_snapshot(core_->do_materialize());
}

DurableStore::StageStats DurableStore::stage_stats() const {
  return core_->snapshot_stats();
}

void DurableStore::bind_metrics(obs::MetricsRegistry& registry) {
  core_->do_bind(registry);
}

void DurableStore::trace_spans(obs::SpanTracer* spans) {
  std::lock_guard<std::mutex> lock(core_->metrics_mutex);
  core_->spans = spans;
}

obs::PressureInputs DurableStore::pressure_inputs() const {
  obs::PressureInputs in;
  {
    // Lag = batches submitted but not yet decided (queued + in the group
    // the writer is currently fsyncing).
    std::lock_guard<std::mutex> lock(core_->queue_mutex);
    in.wal_lag_batches = (core_->next_seq - 1) - core_->done_seq;
  }
  std::uint64_t chain = 0;
  {
    std::lock_guard<std::mutex> lock(core_->base_mutex);
    chain = core_->current.deltas.size();
  }
  {
    std::lock_guard<std::mutex> lock(core_->apply_mutex);
    in.checkpoint_debt = core_->since_delta + chain;
  }
  return in;
}

// ------------------------------------------------------------------- fsck

DurableStore::FsckReport DurableStore::fsck(const std::string& dir) {
  FsckReport report;
  ChainRefs refs;
  bool frontier_found = false;
  for (const auto& [frontier, path] : list_manifests(dir)) {
    FsckManifest info;
    info.path = path;
    info.frontier = frontier;
    const auto m = load_manifest_file(path);
    info.decodable = m.has_value() && m->frontier == frontier;
    if (info.decodable) {
      refs.any_manifest_decodable = true;
      info.usable = true;
      info.chain_deltas = m->deltas.size();
      if (m->base_batches > 0) {
        refs.bases.insert(m->base_batches);
        const auto loaded = load_base_file(base_path(dir, m->base_batches));
        if (!loaded || loaded->batches != m->base_batches) info.usable = false;
      }
      for (const auto& d : m->deltas) {
        refs.deltas.insert({d.frontier, d.shard});
        if (info.usable &&
            !load_delta_file(delta_path(dir, d.frontier, d.shard), d.frontier,
                             d.shard)) {
          info.usable = false;
        }
      }
    }
    if (info.usable && !frontier_found) {
      report.frontier = frontier;
      report.chain_deltas = info.chain_deltas;
      frontier_found = true;
    }
    if (!info.usable) report.clean = false;
    report.manifests.push_back(std::move(info));
  }

  bool best_base_found = false;
  for (const auto& [batches, path] : list_bases(dir)) {
    FsckSnapshot info;
    info.path = path;
    info.batches = batches;
    const auto loaded = load_base_file(path);
    info.valid = loaded.has_value() && loaded->batches == batches;
    if (info.valid && !best_base_found) {
      report.best_snapshot_batches = batches;
      best_base_found = true;
    }
    if (!info.valid) report.clean = false;
    report.snapshots.push_back(std::move(info));
  }
  if (!frontier_found) report.frontier = report.best_snapshot_batches;

  report.orphaned_chain_files = count_orphaned_chain_files(dir, refs);
  if (report.orphaned_chain_files > 0) report.clean = false;

  const auto replay = Wal::replay(dir);
  report.wal_segments = Wal::list_segments(dir).size();
  report.wal_records = replay.records_scanned;
  report.discarded_wal_bytes = replay.discarded_bytes;
  report.wal_tail_truncated = replay.tail_truncated;
  if (replay.tail_truncated) report.clean = false;
  std::uint64_t expected = report.frontier;
  for (const auto& replayed : replay.batches) {
    if (replayed.seq <= report.frontier) {
      ++report.stale_batches;
    } else if (replayed.seq == expected + 1) {
      ++report.replayable_batches;
      expected = replayed.seq;
    } else {
      break;  // gap: recovery would stop here too
    }
  }
  report.recoverable_batches = report.frontier + report.replayable_batches;
  report.compaction_debt = report.chain_deltas + report.replayable_batches;

  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().extension().string() == ".tmp") {
      ++report.tmp_files;
      report.clean = false;
    }
  }
  return report;
}

}  // namespace nxd::pdns
