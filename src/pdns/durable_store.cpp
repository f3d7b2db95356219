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
#include "pdns/snapshot.hpp"

namespace nxd::pdns {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Load a manifest's base image and absorb its deltas in chain order;
/// nullopt at the first chain file that fails validation.
std::optional<PassiveDnsStore> load_chain(const std::string& dir,
                                          const Manifest& m,
                                          const StoreConfig& store) {
  PassiveDnsStore image(store);
  if (m.base_batches > 0) {
    auto loaded = load_base_file(base_path(dir, m.base_batches));
    if (!loaded || loaded->batches != m.base_batches) return std::nullopt;
    image = std::move(loaded->store);
  }
  for (const auto& d : m.deltas) {
    const auto delta = load_delta_file(delta_path(dir, d.frontier, d.shard),
                                       d.frontier, d.shard);
    if (!delta) return std::nullopt;
    image.absorb(*delta);
  }
  return image;
}

/// The one reading of a durable directory: what open() restores, replays
/// and repairs, and what fsck() reports.  Building it changes nothing on
/// disk.
struct DirScan {
  explicit DirScan(const StoreConfig& store) : image(store) {}

  DurableStore::RecoveryInfo info;  ///< all but the counts open() applies
  PassiveDnsStore image;            ///< the winning frontier's store
  Manifest current;  ///< the winner (a bare base poses as a chainless one)
  std::optional<Manifest> previous;     ///< retention fallback behind it
  std::vector<Wal::ReplayedBatch> run;  ///< seq frontier+1, frontier+2, ...
  /// (segment index, bytes kept) for every segment holding refused bytes.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> wal_cuts;
  std::uint64_t next_segment = 0;  ///< first index past every segment
  std::uint64_t wal_segments = 0;
  std::uint64_t wal_records = 0;
  std::vector<std::string> tmp_files;  ///< uncommitted temporaries
  // Filled only by a full scan (fsck): every manifest and base, validated.
  std::vector<DurableStore::FsckManifest> manifests;
  std::vector<DurableStore::FsckSnapshot> bases;
};

DirScan scan_dir(const std::string& dir, const StoreConfig& store,
                 bool full) {
  DirScan scan(store);
  auto& info = scan.info;

  // 1. The frontier: the newest manifest whose base and deltas all load.  A
  //    damaged chain skips to the previous manifest, whose WAL floor is
  //    still retained, so the skipped batches replay instead of being lost.
  //    Past the winner only a full scan validates chains; open() merely
  //    decodes the older manifests, for the retention fallback and the
  //    orphan count.
  bool any_decodable = false;
  std::set<std::uint64_t> ref_bases;
  std::set<std::pair<std::uint64_t, std::uint32_t>> ref_deltas;
  for (const auto& [frontier, path] : list_manifests(dir)) {
    const auto m = load_manifest_file(path);
    const bool decodable = m && m->frontier == frontier;
    const bool pending = !info.snapshot_loaded;
    std::optional<PassiveDnsStore> chain;
    if (decodable) {
      any_decodable = true;
      if (m->base_batches > 0) ref_bases.insert(m->base_batches);
      for (const auto& d : m->deltas) ref_deltas.insert({d.frontier, d.shard});
      if (pending || full) chain = load_chain(dir, *m, store);
    }
    if (full) {
      scan.manifests.push_back({path, frontier, decodable, chain.has_value(),
                                decodable ? m->deltas.size() : 0});
    }
    if (!pending) {
      // The retention fallback: the newest older manifest of a different
      // base lineage (cleanup kept it on disk exactly for this).  Without
      // it, the first post-recovery checkpoint would truncate the WAL up to
      // the current lineage and re-open the shared-base fault window.
      if (decodable && !scan.previous &&
          m->base_batches != scan.current.base_batches) {
        scan.previous = *m;
      }
      continue;
    }
    if (!chain) {
      ++info.invalid_manifests;
      if (decodable) ++info.corrupt_chain_files;
      continue;
    }
    scan.image = std::move(*chain);
    scan.current = *m;
    info.snapshot_loaded = true;
    info.snapshot_batches = frontier;
    info.deltas_absorbed = m->deltas.size();
  }
  info.frontier_degraded = info.invalid_manifests > 0;

  // 2. Without a usable manifest the newest valid base alone is still an
  //    exact prefix: legacy directories have no manifests at all, and a
  //    multi-fault directory degrades here.  Chain files that no decodable
  //    manifest references are orphans (a checkpoint that died before its
  //    manifest, or an interrupted cleanup); without any manifest, bare
  //    bases are the legacy layout, not orphans.
  for (const auto& [batches, path] : list_bases(dir)) {
    if (any_decodable && !ref_bases.contains(batches)) {
      ++info.orphaned_chain_files;
    }
    if (info.snapshot_loaded && !full) continue;
    auto loaded = load_base_file(path);
    const bool valid = loaded && loaded->batches == batches;
    if (full) scan.bases.push_back({path, batches, valid});
    if (info.snapshot_loaded) continue;
    if (!valid) {
      ++info.invalid_snapshots;
      continue;
    }
    scan.image = std::move(loaded->store);
    scan.current = Manifest{batches, batches, 0, {}};
    info.snapshot_loaded = true;
    info.snapshot_batches = batches;
  }
  for (const auto& d : list_deltas(dir)) {
    if (!ref_deltas.contains({d.frontier, d.shard})) {
      ++info.orphaned_chain_files;
    }
  }

  // 3. The WAL run: seq frontier+1, frontier+2, ... in segment order.  A
  //    record at or below the frontier is stale.  The first sequence gap
  //    (only possible under multiple independent faults) ends the run — an
  //    exact prefix, just shorter — and refuses every record from it on.
  auto wal = Wal::replay(dir);
  const std::uint64_t frontier = info.snapshot_batches;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> gap;
  for (auto& batch : wal.batches) {
    if (batch.seq <= frontier) {
      ++info.stale_batches_skipped;
    } else if (batch.seq == frontier + scan.run.size() + 1) {
      scan.run.push_back(std::move(batch));
    } else {
      gap = {batch.segment, batch.offset};
      break;
    }
  }
  info.wal_gap_detected = gap.has_value();
  // Refused bytes: each damaged tail before the gap, everything from it on.
  auto damaged = wal.cuts.begin();
  for (const auto& [index, bytes] : wal.segments) {
    std::uint64_t keep = bytes;
    if (damaged != wal.cuts.end() && damaged->first == index) {
      keep = (damaged++)->second;
    }
    if (gap && index >= gap->first) {
      keep = index == gap->first ? gap->second : 0;
    }
    if (keep < bytes) {
      scan.wal_cuts.emplace_back(index, keep);
      info.discarded_wal_bytes += bytes - keep;
    }
  }
  info.wal_tail_truncated = !scan.wal_cuts.empty();
  scan.next_segment =
      wal.segments.empty() ? 0 : wal.segments.back().first + 1;
  scan.wal_segments = wal.segments.size();
  scan.wal_records = wal.records_scanned;

  // 4. Leftover atomic-commit temporaries: writes that died before their
  //    rename, so removing one can never lose acked data.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) &&
        entry.path().extension().string() == ".tmp") {
      scan.tmp_files.push_back(entry.path().string());
    }
  }
  return scan;
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
        base(cfg.store),
        own_registry(std::make_unique<obs::MetricsRegistry>()) {
    acquire_metrics(*own_registry);
  }

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
  std::unique_ptr<obs::MetricsRegistry> own_registry;  // until bind_metrics()
  Metrics m;
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
  void acquire_metrics(obs::MetricsRegistry& reg);
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
  auto scan = scan_dir(dir, config.store, /*full=*/false);
  recovery = scan.info;
  base = std::move(scan.image);
  current = scan.current;
  previous = scan.previous;

  // Replay the run zero-copy on top of the frontier, as one group.
  std::vector<std::span<const std::uint8_t>> frames;
  frames.reserve(scan.run.size());
  for (const auto& batch : scan.run) frames.emplace_back(batch.frame);
  tail.ingest_frames(frames, *pool);
  const std::uint64_t frontier = scan.info.snapshot_batches + scan.run.size();
  committed.store(frontier, std::memory_order_relaxed);
  m.wal_batches.inc(frontier);  // recovered batches were acked before
  recovery.replayed_batches = scan.run.size();
  since_delta = scan.run.size();

  // Repair before the new segment is armed: durably remove every WAL byte
  // the scan refused, so the log holds exactly the recovered prefix and no
  // later recovery can trip over it.  Idempotent — a death mid-repair
  // leaves a directory that scans to the same decision.
  for (const auto& [index, keep] : scan.wal_cuts) {
    const std::string path = Wal::segment_path(dir, index);
    if (!(keep == 0 ? util::remove_file(path, crash)
                    : util::truncate_file(path, keep, crash))) {
      return false;
    }
  }
  // No crash hook for the temporaries: a death mid-sweep just leaves files
  // for the next open to sweep again.  Orphaned chain files are counted but
  // kept; the next successful checkpoint's cleanup retires them.
  std::error_code ec;
  for (const auto& path : scan.tmp_files) {
    if (std::filesystem::remove(path, ec)) ++recovery.removed_tmp_files;
  }

  wal = Wal::create(dir, config.wal, scan.next_segment, frontier + 1, crash);
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
    }
    if (control != nullptr) {
      {
        std::lock_guard<std::mutex> lock(apply_mutex);
        trigger_checkpoint(/*compact=*/true);
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        control->control->done = true;
      }
      done_cv.notify_all();
      continue;
    }
    commit_group(group);  // publishes done_seq and wakes the riders
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
      auto record = encode_delta_record(job->frontier, s, shard);
      if (!util::write_record_atomic(delta_path(dir, job->frontier, s),
                                     std::move(record), crash)) {
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
      if (!util::write_record_atomic(base_path(dir, job->frontier),
                                     encode_base_record(job->frontier, base),
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
  if (!util::write_record_atomic(manifest_path(dir, next.frontier),
                                 next.encode_record(), crash)) {
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

void DurableStore::Core::acquire_metrics(obs::MetricsRegistry& reg) {
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
}

void DurableStore::Core::do_bind(obs::MetricsRegistry& reg) {
  std::lock_guard<std::mutex> apply_lock(apply_mutex);
  std::lock_guard<std::mutex> lock(metrics_mutex);
  if (own_registry != nullptr) reg.absorb(own_registry->snapshot());
  acquire_metrics(reg);
  own_registry.reset();
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
  auto scan = scan_dir(dir, StoreConfig{}, /*full=*/true);
  const auto& info = scan.info;
  FsckReport report;
  report.frontier = info.snapshot_batches;
  report.best_snapshot_batches = scan.current.base_batches;
  report.chain_deltas = scan.current.deltas.size();
  report.orphaned_chain_files = info.orphaned_chain_files;
  report.wal_segments = scan.wal_segments;
  report.wal_records = scan.wal_records;
  report.replayable_batches = scan.run.size();
  report.stale_batches = info.stale_batches_skipped;
  report.recoverable_batches = report.frontier + report.replayable_batches;
  report.compaction_debt = report.chain_deltas + report.replayable_batches;
  report.discarded_wal_bytes = info.discarded_wal_bytes;
  report.tmp_files = scan.tmp_files.size();
  report.wal_tail_truncated = info.wal_tail_truncated;
  report.clean = report.orphaned_chain_files == 0 && report.tmp_files == 0 &&
                 !report.wal_tail_truncated;
  for (const auto& m : scan.manifests) report.clean &= m.usable;
  for (const auto& b : scan.bases) report.clean &= b.valid;
  report.manifests = std::move(scan.manifests);
  report.snapshots = std::move(scan.bases);
  return report;
}

}  // namespace nxd::pdns
