// Crash-safe durable ingest: checked_io framing / atomic-commit primitives,
// WAL group commit + append-rotate-replay, DurableStore delta checkpoints,
// manifest recovery — and the deterministic crash-point harness, which
// enumerates EVERY I/O boundary of a scripted ingest, simulates a failure
// there (kill, torn write, bit flip, short write, fsync stall, ENOSPC),
// recovers, and asserts byte-exact equivalence with an uninterrupted serial
// ingest of the recovered batch prefix.  Everything is seeded and
// byte-reproducible.
//
// The tier-1 run samples the injection matrix with a stride; set
// NXD_CRASH_EXHAUSTIVE=1 to sweep every (op, mode) pair (the `crash_matrix`
// ctest entry does).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/message.hpp"
#include "dns/name.hpp"
#include "pdns/durable_store.hpp"
#include "pdns/manifest.hpp"
#include "pdns/observation.hpp"
#include "pdns/sie_channel.hpp"
#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "pdns/wal.hpp"
#include "util/bytes.hpp"
#include "util/checked_io.hpp"
#include "util/civil_time.hpp"
#include "util/rng.hpp"

namespace nxd {
namespace {

using util::CrashPoint;

bool exhaustive_matrix() {
  return std::getenv("NXD_CRASH_EXHAUSTIVE") != nullptr;
}

/// Fresh scratch directory per scenario, wiped first so every simulated
/// process starts from the same on-disk state.  Keyed by pid so the plain /
/// ASan / TSan duplicates of this suite can run concurrently under
/// `ctest -j` without wiping each other's live directories.
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "nxd_crash_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> s) {
  return {s.begin(), s.end()};
}

/// `payload` as a record buffer: kRecordHeaderBytes of headroom, then the
/// payload (what the production encoders build in place).
std::vector<std::uint8_t> record_of(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> record(util::kRecordHeaderBytes);
  record.insert(record.end(), payload.begin(), payload.end());
  return record;
}

bool append_payload(util::CheckedWriter& writer,
                    std::span<const std::uint8_t> payload) {
  auto record = record_of(payload);
  return writer.append_framed(record);
}

/// Seeded observation batches: a small zoo of domains, days, rcodes, and
/// sensors, enough to exercise every snapshot section.
std::vector<std::vector<pdns::Observation>> make_batches(std::uint64_t seed,
                                                         std::size_t batches,
                                                         std::size_t per_batch) {
  static const char* kTlds[] = {"com", "net", "org", "xyz"};
  util::Rng rng(seed);
  std::vector<std::vector<pdns::Observation>> out(batches);
  for (auto& batch : out) {
    batch.reserve(per_batch);
    for (std::size_t i = 0; i < per_batch; ++i) {
      pdns::Observation obs;
      obs.name = dns::DomainName::must(
          "h" + std::to_string(rng.bounded(40)) + ".d" +
          std::to_string(rng.bounded(12)) + "." + kTlds[rng.bounded(4)]);
      const double roll = rng.uniform();
      obs.rcode = roll < 0.80   ? dns::RCode::NXDomain
                  : roll < 0.95 ? dns::RCode::NoError
                                : dns::RCode::ServFail;
      obs.when = rng.range(0, 30) * util::kSecondsPerDay + rng.range(0, 86'399);
      obs.sensor.cls = static_cast<pdns::SensorClass>(rng.bounded(4));
      obs.sensor.index = static_cast<std::uint16_t>(rng.bounded(3));
      batch.push_back(std::move(obs));
    }
  }
  return out;
}

/// Reference: uninterrupted serial ingest of the first `upto` batches.
std::vector<std::uint8_t> serial_snapshot(
    std::span<const std::vector<pdns::Observation>> batches,
    std::uint64_t upto) {
  pdns::PassiveDnsStore store;
  for (std::uint64_t b = 0; b < upto; ++b) {
    for (const auto& obs : batches[b]) store.ingest(obs);
  }
  return pdns::save_snapshot(store);
}

/// Edge-encode one batch as an SIE frame and queue it through the one
/// durable ingest entry.  Returns the ticket (0 == refused).
std::uint64_t submit(pdns::DurableStore& store,
                     std::span<const pdns::Observation> batch) {
  return store.submit_frame(pdns::encode_batch_frame(batch));
}

/// submit() and wait for the group commit: true == acked.
bool ingest(pdns::DurableStore& store,
            std::span<const pdns::Observation> batch) {
  return store.wait_batch(submit(store, batch));
}

/// One batch as its own WAL record, made durable alone (a group of one).
bool append_durable(pdns::Wal& wal, std::span<const pdns::Observation> batch) {
  return wal.append_frame(pdns::encode_batch_frame(batch)) && wal.sync();
}

/// Config for the plain (non-crash) round-trip tests: async group commit,
/// manual checkpoints only.
pdns::DurableStore::Config plain_config(std::size_t shards) {
  pdns::DurableStore::Config config;
  config.shard_count = shards;
  config.wal.segment_max_bytes = 4096;  // small, to exercise rotation
  return config;
}

/// Config the crash harness enumerates: synchronous (all guarded I/O on one
/// thread → deterministic op numbering) with the full delta-checkpoint
/// protocol exercised every two batches and a compaction every second round.
pdns::DurableStore::Config script_config(std::size_t shards) {
  pdns::DurableStore::Config config;
  config.shard_count = shards;
  config.synchronous = true;
  config.delta_every_batches = 2;
  config.compact_every_deltas = 2;
  config.wal.segment_max_bytes = 4096;
  return config;
}

struct ScriptResult {
  bool opened = false;
  std::uint64_t acked = 0;
};

/// The scripted ingest the harness enumerates: open, ingest every batch
/// (delta checkpoints fire on their own), one manual full checkpoint in the
/// middle.  Stops at the first failed ack (the simulated process is dead
/// from there on).
ScriptResult run_script(
    const std::string& dir,
    std::span<const std::vector<pdns::Observation>> batches, std::size_t shards,
    CrashPoint* crash) {
  auto store = pdns::DurableStore::open(dir, script_config(shards), crash);
  if (!store) return {};
  ScriptResult result;
  result.opened = true;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    if (!ingest(*store, batches[b])) break;
    ++result.acked;
    if (b + 1 == batches.size() / 2) store->checkpoint();
  }
  return result;
}

/// Overwrite one byte of `path` with its complement.
void flip_byte_at(const std::string& path, std::size_t offset) {
  auto bytes = util::read_file(path);
  ASSERT_TRUE(bytes.has_value()) << path;
  ASSERT_LT(offset, bytes->size()) << path;
  (*bytes)[offset] ^= 0xFF;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes->data()),
            static_cast<std::streamsize>(bytes->size()));
}

/// Flip one seeded byte somewhere in `path` — the CRC32C framing must turn
/// any such mutation into a detected, recoverable fault.
void flip_byte_in_file(const std::string& path, std::uint64_t seed) {
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 0u) << path;
  util::Rng rng(seed);
  flip_byte_at(path, rng.bounded(size));
}

/// Every checkpoint-chain file (manifests, bases, deltas) currently in `dir`.
std::vector<std::string> chain_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& [frontier, path] : pdns::list_manifests(dir)) {
    files.push_back(path);
  }
  for (const auto& [batches, path] : pdns::list_bases(dir)) {
    files.push_back(path);
  }
  for (const auto& delta : pdns::list_deltas(dir)) files.push_back(delta.path);
  return files;
}

/// Bytes a death mid-append leaves behind: a record header cut short.
const std::vector<std::uint8_t> kTornTail = {0, 0, 1, 0, 1, 2, 3, 4, 5, 6};

/// Append `tail` to the newest WAL segment in `dir`.
void append_to_last_segment(const std::string& dir,
                            const std::vector<std::uint8_t>& tail) {
  const auto segments = pdns::Wal::list_segments(dir);
  ASSERT_FALSE(segments.empty()) << dir;
  std::ofstream out(segments.back().second, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(tail.data()),
            static_cast<std::streamsize>(tail.size()));
}

/// Acked ingest of batches[from, to), checkpointing after every batch index
/// listed in `checkpoint_after`.
void ingest_range(pdns::DurableStore& store,
                  std::span<const std::vector<pdns::Observation>> batches,
                  std::size_t from, std::size_t to,
                  std::initializer_list<std::size_t> checkpoint_after = {}) {
  for (std::size_t b = from; b < to; ++b) {
    ASSERT_TRUE(ingest(store, batches[b])) << "batch " << b;
    if (std::find(checkpoint_after.begin(), checkpoint_after.end(), b) !=
        checkpoint_after.end()) {
      ASSERT_TRUE(store.checkpoint()) << "after batch " << b;
    }
  }
}

/// fsck read before `recovered` opened must have predicted what it
/// restored, and the open must have left no refused WAL bytes and no
/// temporaries behind.
void expect_fsck_predicted_open(const pdns::DurableStore::FsckReport& before,
                                const pdns::DurableStore& recovered) {
  EXPECT_EQ(before.frontier, recovered.recovery().snapshot_batches);
  EXPECT_EQ(before.recoverable_batches, recovered.committed_batches());
  const auto after = pdns::DurableStore::fsck(recovered.dir());
  EXPECT_FALSE(after.wal_tail_truncated);
  EXPECT_EQ(after.discarded_wal_bytes, 0u);
  EXPECT_EQ(after.tmp_files, 0u);
}

/// The second round: submit every batch the recovery did not bring back,
/// close, reopen, and require all of them, byte-identical to serial ingest.
void expect_second_round_complete(
    std::optional<pdns::DurableStore>& store,
    const pdns::DurableStore::Config& config,
    std::span<const std::vector<pdns::Observation>> batches,
    const std::vector<std::uint8_t>& want_all) {
  const std::string dir = store->dir();
  std::vector<std::uint64_t> tickets;
  for (std::size_t b = store->committed_batches(); b < batches.size(); ++b) {
    tickets.push_back(submit(*store, batches[b]));
  }
  for (const auto ticket : tickets) ASSERT_TRUE(store->wait_batch(ticket));
  store.reset();
  auto reopened = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->committed_batches(), batches.size());
  EXPECT_EQ(reopened->snapshot_bytes(), want_all);
}

// -------------------------------------------------------------- checked_io

TEST(CheckedIo, WriterScanRoundTrip) {
  const std::string path = fresh_dir("ckio_rt") + "/records.log";
  auto writer = util::CheckedWriter::open(path);
  ASSERT_TRUE(writer.has_value());
  ASSERT_TRUE(append_payload(*writer, bytes_of("alpha")));
  ASSERT_TRUE(append_payload(*writer, bytes_of("")));
  ASSERT_TRUE(append_payload(*writer, bytes_of("gamma-3")));
  ASSERT_TRUE(writer->close());
  EXPECT_FALSE(append_payload(*writer, bytes_of("after close")));

  const auto bytes = util::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  const auto scan = util::scan_records(*bytes);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(bytes_of(scan.records[0]), bytes_of("alpha"));
  EXPECT_EQ(bytes_of(scan.records[1]), bytes_of(""));
  EXPECT_EQ(bytes_of(scan.records[2]), bytes_of("gamma-3"));
  EXPECT_FALSE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_bytes, scan.total_bytes);
}

TEST(CheckedIo, TruncationAtEveryOffsetAdmitsOnlyWholeRecords) {
  std::vector<std::size_t> boundaries{0};
  const std::string path = fresh_dir("ckio_trunc") + "/records.log";
  auto writer = util::CheckedWriter::open(path);
  ASSERT_TRUE(writer.has_value());
  for (const auto* payload : {"first", "second-rec", "x"}) {
    ASSERT_TRUE(append_payload(*writer, bytes_of(payload)));
    ASSERT_TRUE(writer->flush());
    boundaries.push_back(writer->bytes_written());
  }
  ASSERT_TRUE(writer->close());
  const auto bytes = util::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  ASSERT_EQ(bytes->size(), boundaries.back());

  for (std::size_t cut = 0; cut <= bytes->size(); ++cut) {
    const auto scan =
        util::scan_records(std::span(*bytes).subspan(0, cut));
    // Exactly the records whose frames fit wholly under the cut survive.
    std::size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= cut) {
      ++expect;
    }
    EXPECT_EQ(scan.records.size(), expect) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, boundaries[expect]) << "cut=" << cut;
    EXPECT_EQ(scan.truncated_tail, cut != boundaries[expect]) << "cut=" << cut;
  }
}

TEST(CheckedIo, CorruptionAtEveryOffsetNeverAdmitsAMangledRecord) {
  const std::string path = fresh_dir("ckio_flip") + "/records.log";
  auto writer = util::CheckedWriter::open(path);
  ASSERT_TRUE(writer.has_value());
  const std::vector<std::vector<std::uint8_t>> payloads{
      bytes_of("payload-one"), bytes_of("payload-two-longer"), bytes_of("p3")};
  for (const auto& p : payloads) ASSERT_TRUE(append_payload(*writer, p));
  ASSERT_TRUE(writer->close());
  const auto clean = util::read_file(path);
  ASSERT_TRUE(clean.has_value());

  for (std::size_t at = 0; at < clean->size(); ++at) {
    auto mangled = *clean;
    mangled[at] ^= 0xFF;
    const auto scan = util::scan_records(mangled);
    // Whatever survives must be an untouched prefix of the original records;
    // the record containing the flipped byte is dropped, not mangled.
    ASSERT_LT(scan.records.size(), payloads.size() + 1);
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      EXPECT_EQ(bytes_of(scan.records[i]), payloads[i]) << "offset=" << at;
    }
    EXPECT_TRUE(scan.truncated_tail) << "offset=" << at;
  }
}

TEST(CheckedIo, OversizedLengthFieldIsCorruptionNotAnAllocation) {
  util::ByteWriter w;
  w.u32(0x434b5231);                 // record magic
  w.u32(util::kMaxRecordBytes + 1);  // hostile length
  w.u32(0);                          // crc (never reached)
  const auto bytes = std::move(w).take();
  const auto scan = util::scan_records(bytes);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.truncated_tail);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(CheckedIo, ReadFileCheckedRejectsTrailingJunk) {
  const std::string dir = fresh_dir("ckio_atomic");
  const std::string path = dir + "/state.bin";
  ASSERT_TRUE(util::write_record_atomic(path, record_of(bytes_of("committed"))));
  EXPECT_EQ(util::read_file_checked(path), bytes_of("committed"));

  std::ofstream(path, std::ios::binary | std::ios::app) << "junk";
  EXPECT_FALSE(util::read_file_checked(path).has_value());
}

TEST(CheckedIo, AtomicCommitCrashAtEveryOpKeepsOldOrNothing) {
  const std::string dir = fresh_dir("ckio_commit");
  const std::string path = dir + "/state.bin";
  const auto old_payload = bytes_of("old committed state");
  const auto new_payload = bytes_of("replacement state, longer than before");

  // Discovery: how many I/O boundaries does one commit have?
  ASSERT_TRUE(util::write_record_atomic(path, record_of(old_payload)));
  CrashPoint probe;
  ASSERT_TRUE(util::write_record_atomic(path, record_of(new_payload), &probe));
  const std::uint64_t total_ops = probe.ops_seen();
  ASSERT_GE(total_ops, 4u);  // open, record write, flush, rename

  // Every failure mode that dies before (or instead of) the rename must
  // leave the previously committed file byte-identical.
  for (std::uint64_t op = 0; op < total_ops; ++op) {
    for (const auto mode :
         {CrashPoint::Mode::Kill, CrashPoint::Mode::Torn,
          CrashPoint::Mode::BitFlip, CrashPoint::Mode::ShortWrite,
          CrashPoint::Mode::Enospc}) {
      std::filesystem::remove(path + ".tmp");
      ASSERT_TRUE(util::write_record_atomic(path, record_of(old_payload)));
      CrashPoint crash(op, mode, /*seed=*/1000 + op);
      EXPECT_FALSE(util::write_record_atomic(path, record_of(new_payload), &crash));
      EXPECT_TRUE(crash.crashed());
      // The committed file is untouched: the temp never renames over it.
      EXPECT_EQ(util::read_file_checked(path), old_payload)
          << "op=" << op << " mode=" << static_cast<int>(mode);
    }
  }

  // And an uninterrupted retry lands the new state.
  std::filesystem::remove(path + ".tmp");
  ASSERT_TRUE(util::write_record_atomic(path, record_of(new_payload)));
  EXPECT_EQ(util::read_file_checked(path), new_payload);
}

TEST(CheckedIo, FsyncStallCommitsTheOpButReportsFailure) {
  // FsyncStall models the durable-but-unacked window: the operation REACHES
  // the kernel (the rename lands, the fsync completes) but the process dies
  // before observing success.  Atomic commit under it must read back as
  // either the complete old file or the complete new one — and at the
  // rename boundary specifically, the new one.
  const std::string dir = fresh_dir("ckio_stall");
  const std::string path = dir + "/state.bin";
  const auto old_payload = bytes_of("old committed state");
  const auto new_payload = bytes_of("replacement state, longer than before");

  ASSERT_TRUE(util::write_record_atomic(path, record_of(old_payload)));
  CrashPoint probe;
  ASSERT_TRUE(util::write_record_atomic(path, record_of(new_payload), &probe));
  const std::uint64_t total_ops = probe.ops_seen();

  std::size_t landed_new = 0;
  for (std::uint64_t op = 0; op < total_ops; ++op) {
    std::filesystem::remove(path + ".tmp");
    ASSERT_TRUE(util::write_record_atomic(path, record_of(old_payload)));
    CrashPoint crash(op, CrashPoint::Mode::FsyncStall, /*seed=*/2000 + op);
    EXPECT_FALSE(util::write_record_atomic(path, record_of(new_payload), &crash));
    EXPECT_TRUE(crash.crashed());
    const auto readback = util::read_file_checked(path);
    ASSERT_TRUE(readback.has_value()) << "op=" << op;
    EXPECT_TRUE(*readback == old_payload || *readback == new_payload)
        << "op=" << op;
    if (*readback == new_payload) ++landed_new;
  }
  // The rename boundary exists, so at least one stall committed the new file.
  EXPECT_GE(landed_new, 1u);
}

// --------------------------------------------------------------------- Wal

TEST(Wal, AppendRotateReplayRoundTrip) {
  const std::string dir = fresh_dir("wal_rt");
  const auto batches = make_batches(21, 5, 30);
  pdns::Wal::Config config;
  config.segment_max_bytes = 512;  // force rotation between appends
  auto wal = pdns::Wal::create(dir, config, /*segment_index=*/0,
                               /*next_seq=*/1);
  ASSERT_TRUE(wal.has_value());
  for (const auto& batch : batches) ASSERT_TRUE(append_durable(*wal, batch));
  EXPECT_EQ(wal->next_seq(), 6u);
  EXPECT_GE(pdns::Wal::list_segments(dir).size(), 2u);

  const auto replay = pdns::Wal::replay(dir);
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_EQ(replay.discarded_bytes, 0u);
  ASSERT_EQ(replay.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(replay.batches[i].seq, i + 1);
    // Replay hands back the raw frame bytes — byte equality with the codec
    // output is the strongest cheap comparison.
    EXPECT_EQ(replay.batches[i].frame, pdns::encode_batch_frame(batches[i]))
        << i;
    EXPECT_EQ(replay.batches[i].observations, batches[i].size()) << i;
  }
}

TEST(Wal, GroupAppendIsOneBarrierAndReplaysWhole) {
  const std::string dir = fresh_dir("wal_group");
  const auto batches = make_batches(42, 4, 12);
  auto wal = pdns::Wal::create(dir, {}, 0, 1);
  ASSERT_TRUE(wal.has_value());
  // A whole group buffered, ONE sync: the group-commit building block.
  for (const auto& batch : batches) {
    ASSERT_TRUE(wal->append_frame(pdns::encode_batch_frame(batch)));
  }
  ASSERT_TRUE(wal->sync());
  EXPECT_EQ(wal->next_seq(), 5u);

  const auto replay = pdns::Wal::replay(dir);
  ASSERT_EQ(replay.batches.size(), 4u);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(replay.batches[i].seq, i + 1);
    EXPECT_EQ(replay.batches[i].frame, pdns::encode_batch_frame(batches[i]));
  }
}

TEST(Wal, TornGroupRecordDropsWholeBatchesNeverFractions) {
  const std::string dir = fresh_dir("wal_torn_group");
  const auto batches = make_batches(11, 3, 15);
  auto wal = pdns::Wal::create(dir, {}, 0, 1);
  ASSERT_TRUE(wal.has_value());
  for (const auto& batch : batches) {
    ASSERT_TRUE(wal->append_frame(pdns::encode_batch_frame(batch)));
  }
  ASSERT_TRUE(wal->sync());

  // Tear the file inside the SECOND record of the group: replay must admit
  // exactly batch 1 — whole batches are dropped, never fractions of one.
  const auto segments = pdns::Wal::list_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const auto record_bytes = [&](std::size_t i) {
    // CKR1 framing: 12-byte header + (8-byte seq + frame) payload.
    return 12 + 8 + pdns::encode_batch_frame(batches[i]).size();
  };
  std::filesystem::resize_file(segments[0].second,
                               record_bytes(0) + record_bytes(1) - 5);

  const auto replay = pdns::Wal::replay(dir);
  ASSERT_EQ(replay.batches.size(), 1u);
  EXPECT_EQ(replay.batches[0].seq, 1u);
  EXPECT_EQ(replay.batches[0].frame, pdns::encode_batch_frame(batches[0]));
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_GT(replay.discarded_bytes, 0u);
}

TEST(Wal, ReplayStopsAtNonIncreasingSequence) {
  const std::string dir = fresh_dir("wal_seq");
  const auto batches = make_batches(33, 3, 10);
  auto writer =
      util::CheckedWriter::open(pdns::Wal::segment_path(dir, 0));
  ASSERT_TRUE(writer.has_value());
  const std::uint64_t seqs[] = {1, 3, 2};  // 2 after 3 is damage
  for (std::size_t i = 0; i < 3; ++i) {
    util::ByteWriter payload;
    payload.u32(static_cast<std::uint32_t>(seqs[i] >> 32));
    payload.u32(static_cast<std::uint32_t>(seqs[i]));
    payload.bytes(pdns::encode_batch_frame(batches[i]));
    ASSERT_TRUE(append_payload(*writer, payload.view()));
  }
  ASSERT_TRUE(writer->close());

  const auto replay = pdns::Wal::replay(dir);
  ASSERT_EQ(replay.batches.size(), 2u);
  EXPECT_EQ(replay.batches[0].seq, 1u);
  EXPECT_EQ(replay.batches[1].seq, 3u);
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_GT(replay.discarded_bytes, 0u);
}

TEST(Wal, TornTailDropsOnlyTheLastBatch) {
  const std::string dir = fresh_dir("wal_torn");
  const auto batches = make_batches(7, 3, 20);
  pdns::Wal::Config config;  // large segments: everything in one file
  auto wal = pdns::Wal::create(dir, config, 0, 1);
  ASSERT_TRUE(wal.has_value());
  for (const auto& batch : batches) ASSERT_TRUE(append_durable(*wal, batch));

  const auto segments = pdns::Wal::list_segments(dir);
  ASSERT_EQ(segments.size(), 1u);
  const auto size = std::filesystem::file_size(segments[0].second);
  std::filesystem::resize_file(segments[0].second, size - 3);

  const auto replay = pdns::Wal::replay(dir);
  ASSERT_EQ(replay.batches.size(), 2u);  // all-or-nothing: batch 3 gone whole
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_GT(replay.discarded_bytes, 0u);
}

TEST(Wal, DropSegmentsBelowTruncatesHistory) {
  const std::string dir = fresh_dir("wal_drop");
  const auto batches = make_batches(9, 4, 20);
  pdns::Wal::Config config;
  config.segment_max_bytes = 256;
  auto wal = pdns::Wal::create(dir, config, 0, 1);
  ASSERT_TRUE(wal.has_value());
  for (const auto& batch : batches) ASSERT_TRUE(append_durable(*wal, batch));
  ASSERT_GE(pdns::Wal::list_segments(dir).size(), 3u);

  ASSERT_TRUE(wal->drop_segments_below(wal->segment_index()));
  const auto kept = pdns::Wal::list_segments(dir);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].first, wal->segment_index());
}

// ------------------------------------------------------------ DurableStore

TEST(DurableStore, CheckpointRecoverRoundTrip) {
  const std::string dir = fresh_dir("ds_rt");
  const auto batches = make_batches(55, 6, 40);

  {
    auto store = pdns::DurableStore::open(dir, plain_config(1));
    ASSERT_TRUE(store.has_value());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(ingest(*store, batches[b]));
      if (b == 2) {
        ASSERT_TRUE(store->checkpoint());
      }
    }
    EXPECT_EQ(store->committed_batches(), 6u);
    EXPECT_EQ(store->checkpoints_taken(), 1u);
  }  // drop the store: simulate a clean shutdown without a final checkpoint

  auto recovered = pdns::DurableStore::open(dir, plain_config(1));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 6u);
  EXPECT_TRUE(recovered->recovery().snapshot_loaded);
  EXPECT_EQ(recovered->recovery().snapshot_batches, 3u);
  EXPECT_EQ(recovered->recovery().replayed_batches, 3u);
  // Retention keeps WAL back to the previous frontier's floor, so the
  // batches the manifest already covers replay as stale skips — by design.
  EXPECT_EQ(recovered->recovery().stale_batches_skipped, 3u);
  EXPECT_FALSE(recovered->recovery().frontier_degraded);
  EXPECT_FALSE(recovered->recovery().wal_tail_truncated);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 6));
}

TEST(DurableStore, RecoverySkipsWalRecordsTheCheckpointAlreadyCovers) {
  const std::string dir = fresh_dir("ds_stale");
  const auto batches = make_batches(77, 4, 30);
  {
    auto store = pdns::DurableStore::open(dir, plain_config(1));
    ASSERT_TRUE(store.has_value());
    for (const auto& batch : batches) ASSERT_TRUE(ingest(*store, batch));
    ASSERT_TRUE(store->checkpoint());
  }
  // Simulate a crash that raced WAL truncation: a leftover segment still
  // carrying batch seq 1, which the checkpoint (batches=4) already covers.
  {
    auto stale = pdns::Wal::create(dir, {}, /*segment_index=*/50,
                                   /*next_seq=*/1);
    ASSERT_TRUE(stale.has_value());
    ASSERT_TRUE(append_durable(*stale, batches[0]));
  }

  auto recovered = pdns::DurableStore::open(dir, plain_config(1));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 4u);
  // Retained segments carry seqs 1..4 (all stale) plus the injected seq-1
  // straggler, which also breaks the ascending-seq rule and ends the scan.
  EXPECT_EQ(recovered->recovery().stale_batches_skipped, 4u);
  EXPECT_EQ(recovered->recovery().replayed_batches, 0u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 4));
}

TEST(DurableStore, PipelinedSubmitCoalescesGroupsAndStaysExact) {
  const std::string dir = fresh_dir("ds_group");
  const auto batches = make_batches(99, 40, 20);

  auto config = plain_config(1);
  config.group_window.max_batches = 8;
  config.group_window.linger_us = 50'000;  // collect until the window fills
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    std::vector<std::uint64_t> tickets;
    for (const auto& batch : batches) {
      const auto ticket = submit(*store, batch);
      ASSERT_NE(ticket, 0u);
      tickets.push_back(ticket);
    }
    ASSERT_TRUE(store->wait_durable());
    for (const auto ticket : tickets) EXPECT_TRUE(store->wait_batch(ticket));
    EXPECT_EQ(store->committed_batches(), 40u);

    const auto stats = store->stage_stats();
    EXPECT_EQ(stats.batches, 40u);
    EXPECT_GE(stats.groups, 5u);   // 40 batches / window of 8
    EXPECT_LE(stats.groups, 12u);  // …but far fewer barriers than batches
    std::uint64_t hist_total = 0;
    for (const auto count : stats.group_size_log2) hist_total += count;
    EXPECT_EQ(hist_total, stats.groups);
    EXPECT_EQ(store->snapshot_bytes(), serial_snapshot(batches, 40));
  }

  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 40u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 40));
}

/// A batch that does not encode to a valid SIE frame must be refused before
/// it reaches the log.  The trigger is ordinary wire input: a response with
/// RCODE 9 (NOTAUTH) decodes as DNS and becomes an Observation, but the frame
/// codec knows only rcodes 0..5.  Had the record been logged and acked, the
/// live store would have dropped it and replay would have read it as
/// corruption, truncating every acked batch behind it.
TEST(DurableStore, InvalidFrameIsRefusedBeforeTheLogAndAckedBatchesSurvive) {
  const std::string dir = fresh_dir("ds_invalid_frame");
  const auto batches = make_batches(909, 2, 20);

  const auto query =
      dns::make_query(7, dns::DomainName::must("odd.example.com"));
  auto wire = dns::encode(dns::make_response(query, dns::RCode::NXDomain));
  wire[3] = static_cast<std::uint8_t>((wire[3] & 0xF0) | 9);  // RCODE 9
  const auto response = dns::decode(wire);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(static_cast<int>(response->header.rcode), 9);
  const std::vector<pdns::Observation> odd = {
      pdns::observe(query, *response, /*when=*/42)};

  {
    auto store = pdns::DurableStore::open(dir, plain_config(1));
    ASSERT_TRUE(store.has_value());
    ASSERT_TRUE(ingest(*store, batches[0]));
    EXPECT_EQ(submit(*store, odd), 0u);  // refused: never queued, never acked
    ASSERT_TRUE(ingest(*store, batches[1]));
    EXPECT_TRUE(store->ok());
    EXPECT_EQ(store->committed_batches(), 2u);
    EXPECT_EQ(store->snapshot_bytes(), serial_snapshot(batches, 2));
  }

  auto recovered = pdns::DurableStore::open(dir, plain_config(1));
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 2u);  // every acked batch
  EXPECT_FALSE(recovered->recovery().wal_tail_truncated);
  EXPECT_EQ(recovered->recovery().discarded_wal_bytes, 0u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 2));
}

TEST(DurableStore, FsckReportsCleanAndDirtyDirectories) {
  const std::string dir = fresh_dir("ds_fsck");
  const auto batches = make_batches(88, 4, 25);
  {
    auto store = pdns::DurableStore::open(dir, plain_config(1));
    ASSERT_TRUE(store.has_value());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(ingest(*store, batches[b]));
      if (b == 1) {
        ASSERT_TRUE(store->checkpoint());
      }
    }
  }
  auto report = pdns::DurableStore::fsck(dir);
  EXPECT_TRUE(report.clean);
  ASSERT_EQ(report.manifests.size(), 1u);
  EXPECT_TRUE(report.manifests[0].usable);
  EXPECT_EQ(report.frontier, 2u);
  EXPECT_EQ(report.best_snapshot_batches, 2u);
  EXPECT_EQ(report.chain_deltas, 0u);
  EXPECT_EQ(report.orphaned_chain_files, 0u);
  EXPECT_EQ(report.stale_batches, 2u);  // retained pre-checkpoint segments
  EXPECT_EQ(report.replayable_batches, 2u);
  EXPECT_EQ(report.recoverable_batches, 4u);

  // Dirt: a leftover commit temp and a torn WAL tail.
  std::ofstream(dir + "/snapshot-999.nxs.tmp", std::ios::binary) << "junk";
  const auto segments = pdns::Wal::list_segments(dir);
  ASSERT_FALSE(segments.empty());
  const auto& tail = segments.back().second;
  std::filesystem::resize_file(tail, std::filesystem::file_size(tail) - 2);

  report = pdns::DurableStore::fsck(dir);
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(report.tmp_files, 1u);
  EXPECT_TRUE(report.wal_tail_truncated);
  EXPECT_EQ(report.recoverable_batches, 3u);  // all-or-nothing on the tail
}

// ------------------------------------------- manifest / delta-chain faults

/// Delta-only lineage (no compactions): corrupting the newest manifest must
/// degrade recovery to a longer WAL replay, never to data loss.
TEST(DurableStore, CorruptNewestManifestDegradesToLongerReplay) {
  const std::string dir = fresh_dir("ds_badmanifest");
  const auto batches = make_batches(101, 6, 30);
  auto config = script_config(1);
  config.compact_every_deltas = 0;  // keep every checkpoint a delta
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    for (const auto& batch : batches) ASSERT_TRUE(ingest(*store, batch));
    EXPECT_GE(store->checkpoints_taken(), 2u);
  }
  const auto manifests = pdns::list_manifests(dir);
  ASSERT_FALSE(manifests.empty());
  flip_byte_in_file(manifests.front().second, /*seed=*/404);

  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 6u);  // nothing lost
  EXPECT_TRUE(recovered->recovery().frontier_degraded);
  EXPECT_GE(recovered->recovery().invalid_manifests, 1u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 6));
}

TEST(DurableStore, CorruptDeltaInChainDegradesToLongerReplay) {
  const std::string dir = fresh_dir("ds_baddelta");
  const auto batches = make_batches(202, 6, 30);
  auto config = script_config(1);
  config.compact_every_deltas = 0;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    for (const auto& batch : batches) ASSERT_TRUE(ingest(*store, batch));
  }
  const auto deltas = pdns::list_deltas(dir);
  ASSERT_FALSE(deltas.empty());
  flip_byte_in_file(deltas.front().path, /*seed=*/405);

  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 6u);
  EXPECT_TRUE(recovered->recovery().frontier_degraded);
  EXPECT_GE(recovered->recovery().corrupt_chain_files, 1u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 6));
}

/// Seeded single-fault fuzz over the whole chain (manifests, bases, deltas,
/// including compacted lineages): retention keeps the previous distinct-base
/// manifest and the WAL back to its floor, so ANY one mutated chain file
/// still recovers every acked batch.
TEST(DurableStore, ChainFileMutationFuzzNeverLosesAckedData) {
  const auto batches = make_batches(303, 8, 25);
  const auto want = serial_snapshot(batches, 8);
  for (const std::uint64_t seed : {7ULL, 77ULL, 777ULL, 7777ULL}) {
    const std::string dir = fresh_dir("ds_fuzz_" + std::to_string(seed));
    const auto config = script_config(1);  // deltas every 2, compact every 2
    {
      auto store = pdns::DurableStore::open(dir, config);
      ASSERT_TRUE(store.has_value());
      for (const auto& batch : batches) {
        ASSERT_TRUE(ingest(*store, batch));
      }
    }
    const auto files = chain_files(dir);
    ASSERT_GE(files.size(), 3u) << "seed=" << seed;
    util::Rng rng(seed);
    const auto& victim = files[rng.bounded(files.size())];
    flip_byte_in_file(victim, seed * 31 + 1);

    auto recovered = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(recovered.has_value()) << "seed=" << seed;
    EXPECT_EQ(recovered->committed_batches(), 8u)
        << "seed=" << seed << " victim=" << victim;
    EXPECT_EQ(recovered->snapshot_bytes(), want)
        << "seed=" << seed << " victim=" << victim;
  }
}

/// Multi-fault: every manifest AND every base mutated.  Full recovery is no
/// longer promised, but open() must still succeed with an exact serial
/// prefix (possibly empty), and fsck must flag the directory.
TEST(DurableStore, MultiFaultCorruptionStillYieldsExactPrefix) {
  const std::string dir = fresh_dir("ds_multifault");
  const auto batches = make_batches(404, 8, 25);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::uint64_t r = 0; r <= batches.size(); ++r) {
    want.push_back(serial_snapshot(batches, r));
  }
  const auto config = script_config(1);
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    for (const auto& batch : batches) ASSERT_TRUE(ingest(*store, batch));
  }
  std::uint64_t mutated = 0;
  for (const auto& [frontier, path] : pdns::list_manifests(dir)) {
    flip_byte_in_file(path, 500 + mutated++);
  }
  for (const auto& [count, path] : pdns::list_bases(dir)) {
    flip_byte_in_file(path, 500 + mutated++);
  }
  ASSERT_GE(mutated, 2u);

  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  const std::uint64_t r = recovered->committed_batches();
  ASSERT_LE(r, batches.size());
  EXPECT_EQ(recovered->snapshot_bytes(), want[r]);
  // Either the WAL alone reconstructed everything, or the truncated-WAL gap
  // was detected and replay stopped at an exact prefix.
  EXPECT_TRUE(r == batches.size() ||
              recovered->recovery().wal_gap_detected);

  const auto report = pdns::DurableStore::fsck(dir);
  EXPECT_FALSE(report.clean);
}

// ------------------------------------------- one recovery rule, repaired

/// Damage in an old WAL segment ends that segment only.  Every record in
/// segment 1 is at or below the frontier (4), so the batches of segment 2
/// still replay and nothing acked is lost.
TEST(DurableStore, DamageInAnOldSegmentEndsOnlyThatSegment) {
  const std::string dir = fresh_dir("ds_old_segment");
  const auto batches = make_batches(505, 6, 20);
  const pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 0, 6, {1, 3});
  }
  flip_byte_at(pdns::Wal::segment_path(dir, 1), 14);

  const auto report = pdns::DurableStore::fsck(dir);
  EXPECT_EQ(report.frontier, 4u);
  EXPECT_EQ(report.recoverable_batches, 6u);
  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->committed_batches(), 6u);
  EXPECT_FALSE(recovered->recovery().frontier_degraded);
  EXPECT_TRUE(recovered->recovery().wal_tail_truncated);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 6));
  expect_fsck_predicted_open(report, *recovered);
}

/// A torn tail is cut off on open, so batches acked after that recovery
/// survive the next one.
TEST(DurableStore, TornTailIsRepairedSoLaterBatchesSurvive) {
  const std::string dir = fresh_dir("ds_torn_repair");
  const auto batches = make_batches(606, 5, 20);
  const pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 0, 3);
  }
  append_to_last_segment(dir, kTornTail);
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->committed_batches(), 3u);
    EXPECT_TRUE(store->recovery().wal_tail_truncated);
    EXPECT_EQ(store->recovery().discarded_wal_bytes, kTornTail.size());
    ingest_range(*store, batches, 3, 5);
  }
  auto reopened = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->committed_batches(), 5u);
  EXPECT_FALSE(reopened->recovery().wal_tail_truncated);
  EXPECT_EQ(reopened->snapshot_bytes(), serial_snapshot(batches, 5));
}

/// What `nxdtool recover` does — open, then a forced checkpoint — leaves a
/// clean directory after a torn tail, and later batches survive.
TEST(DurableStore, RecoverThenCheckpointLeavesACleanDirectory) {
  const std::string dir = fresh_dir("ds_torn_recover");
  const auto batches = make_batches(607, 6, 20);
  const pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 0, 4, {1});
  }
  append_to_last_segment(dir, kTornTail);
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->committed_batches(), 4u);
    ASSERT_TRUE(store->checkpoint());
  }
  const auto report = pdns::DurableStore::fsck(dir);
  EXPECT_TRUE(report.clean);
  EXPECT_FALSE(report.wal_tail_truncated);
  EXPECT_EQ(report.recoverable_batches, 4u);
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 4, 6);
  }
  auto reopened = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->committed_batches(), 6u);
  EXPECT_EQ(reopened->snapshot_bytes(), serial_snapshot(batches, 6));
}

/// After a multi-fault recovery stops at a WAL gap, the records past the
/// gap are removed, so the batches acked next replay on the following open.
TEST(DurableStore, WalGapIsRepairedSoLaterBatchesSurvive) {
  const std::string dir = fresh_dir("ds_gap_repair");
  const auto batches = make_batches(608, 6, 20);
  const pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 0, 6, {1, 3});
  }
  std::uint64_t mutated = 0;
  for (const auto& [frontier, path] : pdns::list_manifests(dir)) {
    flip_byte_in_file(path, 600 + mutated++);
  }
  for (const auto& [count, path] : pdns::list_bases(dir)) {
    flip_byte_in_file(path, 600 + mutated++);
  }
  ASSERT_GE(mutated, 4u);
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    EXPECT_EQ(store->committed_batches(), 0u);
    EXPECT_TRUE(store->recovery().wal_gap_detected);
    ingest_range(*store, batches, 0, 2);
  }
  auto reopened = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->committed_batches(), 2u);
  EXPECT_FALSE(reopened->recovery().wal_gap_detected);
  EXPECT_EQ(reopened->snapshot_bytes(), serial_snapshot(batches, 2));
}

/// fsck names the base image open restores: the winning manifest's, not
/// the newest valid base on disk.
TEST(DurableStore, FsckNamesTheBaseOpenRestores) {
  const std::string dir = fresh_dir("ds_fsck_base");
  const auto batches = make_batches(609, 4, 20);
  const pdns::DurableStore::Config config;
  {
    auto store = pdns::DurableStore::open(dir, config);
    ASSERT_TRUE(store.has_value());
    ingest_range(*store, batches, 0, 4, {1, 3});
  }
  const auto manifests = pdns::list_manifests(dir);
  ASSERT_EQ(manifests.size(), 2u);
  ASSERT_EQ(pdns::list_bases(dir).size(), 2u);
  flip_byte_in_file(manifests.front().second, /*seed=*/406);

  const auto report = pdns::DurableStore::fsck(dir);
  EXPECT_EQ(report.frontier, 2u);
  EXPECT_EQ(report.best_snapshot_batches, 2u);
  EXPECT_EQ(report.chain_deltas, 0u);
  EXPECT_EQ(report.recoverable_batches, 4u);
  auto recovered = pdns::DurableStore::open(dir, config);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->recovery().snapshot_batches, 2u);
  EXPECT_EQ(recovered->committed_batches(), 4u);
  EXPECT_EQ(recovered->snapshot_bytes(), serial_snapshot(batches, 4));
}

// ----------------------------------------------------------- crash harness

/// The tentpole property.  For every I/O boundary `op` of the scripted
/// ingest and every failure mode, kill the collector there, recover, and
/// require:
///   - recovery always succeeds (a crashed directory is never unreadable);
///   - no acked batch is ever lost, and at most one unacked in-flight batch
///     is admitted (it must have become durable before the death —
///     FsyncStall's durable-but-unacked window);
///   - the recovered store's snapshot is byte-identical to an uninterrupted
///     serial ingest of exactly the recovered batch prefix;
///   - fsck, read before the open, predicted its frontier and batch count,
///     and the open left no refused WAL bytes and no temporaries;
///   - a second round (ingest the rest, close, reopen) holds every batch.
/// The scripted run exercises group commit (synchronous groups of one),
/// delta checkpoints, compaction, manifest commits, and retention cleanup.
void enumerate_crash_points(const std::string& tag, std::size_t shards,
                            std::size_t batch_count, std::size_t per_batch) {
  const auto batches = make_batches(0xC0FFEE + shards, batch_count, per_batch);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::uint64_t r = 0; r <= batches.size(); ++r) {
    want.push_back(serial_snapshot(batches, r));
  }

  // Discovery pass: a Mode::None CrashPoint counts the I/O boundaries of an
  // uninterrupted run (and pins the no-crash behaviour while it is at it).
  CrashPoint probe;
  {
    const auto dir = fresh_dir(tag + "_probe");
    const auto result = run_script(dir, batches, shards, &probe);
    ASSERT_TRUE(result.opened);
    ASSERT_EQ(result.acked, batches.size());
    auto recovered = pdns::DurableStore::open(dir, script_config(shards));
    ASSERT_TRUE(recovered.has_value());
    EXPECT_EQ(recovered->snapshot_bytes(), want.back());
  }
  const std::uint64_t total_ops = probe.ops_seen();
  ASSERT_GT(total_ops, 15u) << "scripted run has suspiciously few boundaries";

  // Tier-1 samples the matrix with a stride (offset per mode, so together
  // the modes cover different residues); NXD_CRASH_EXHAUSTIVE=1 sweeps all.
  const std::uint64_t step =
      exhaustive_matrix() ? 1
                          : std::max<std::uint64_t>(1, total_ops / 24);
  std::size_t mode_index = 0;
  for (const auto mode : CrashPoint::kAllModes) {
    const std::uint64_t first = exhaustive_matrix() ? 0 : mode_index++;
    for (std::uint64_t op = first; op < total_ops; op += step) {
      const auto dir = fresh_dir(tag + "_" + std::to_string(op) + "_" +
                                 std::to_string(static_cast<int>(mode)));
      CrashPoint crash(op, mode, /*seed=*/0x5EED + op);
      const auto result = run_script(dir, batches, shards, &crash);
      ASSERT_TRUE(crash.crashed()) << "op=" << op << " never fired";

      SCOPED_TRACE("op=" + std::to_string(op) +
                   " mode=" + std::to_string(static_cast<int>(mode)));
      const auto predicted = pdns::DurableStore::fsck(dir);
      auto recovered = pdns::DurableStore::open(dir, script_config(shards));
      ASSERT_TRUE(recovered.has_value());
      const std::uint64_t r = recovered->committed_batches();
      ASSERT_GE(r, result.acked) << "acked batch lost";
      ASSERT_LE(r, result.acked + 1) << "more than one unacked batch admitted";
      ASSERT_LE(r, batches.size());
      EXPECT_EQ(recovered->snapshot_bytes(), want[r])
          << "acked=" << result.acked << " recovered=" << r;
      expect_fsck_predicted_open(predicted, *recovered);
      expect_second_round_complete(recovered, script_config(shards), batches,
                                   want.back());
    }
  }
}

TEST(CrashHarness, EveryInjectionPointRecoversExactly) {
  enumerate_crash_points("serial", /*shards=*/1, /*batch_count=*/6,
                         /*per_batch=*/40);
}

TEST(CrashHarness, ShardedIngestRecoversExactlyToo) {
  enumerate_crash_points("sharded", /*shards=*/4, /*batch_count=*/4,
                         /*per_batch=*/30);
}

/// Group commit under fire: the asynchronous writer coalesces pipelined
/// submissions while the CrashPoint kills the collector at a sampled op.
/// Op interleaving is not deterministic here (that is what the synchronous
/// matrix is for) — but the ack-safety invariants must hold regardless:
/// acked prefix ⊆ recovered ⊆ submitted, byte-exact at whatever prefix the
/// recovery lands on.
TEST(CrashHarness, AsyncGroupCommitCrashKeepsAckedPrefixExact) {
  const auto batches = make_batches(0xFACADE, 24, 20);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::uint64_t r = 0; r <= batches.size(); ++r) {
    want.push_back(serial_snapshot(batches, r));
  }
  auto config = plain_config(1);
  config.delta_every_batches = 3;
  config.compact_every_deltas = 2;

  for (const std::uint64_t trigger : {2ULL, 5ULL, 11ULL, 23ULL, 47ULL}) {
    for (const auto mode :
         {CrashPoint::Mode::Kill, CrashPoint::Mode::FsyncStall}) {
      const auto dir = fresh_dir("async_" + std::to_string(trigger) + "_" +
                                 std::to_string(static_cast<int>(mode)));
      CrashPoint crash(trigger, mode, /*seed=*/0xA5 + trigger);
      std::uint64_t acked = 0;
      {
        auto store = pdns::DurableStore::open(dir, config, &crash);
        if (store.has_value()) {
          std::vector<std::uint64_t> tickets;
          for (const auto& batch : batches) {
            tickets.push_back(submit(*store, batch));
          }
          for (const auto ticket : tickets) {
            if (ticket == 0 || !store->wait_batch(ticket)) break;
            ++acked;  // acks land in submission order: a strict prefix
          }
        }
      }

      SCOPED_TRACE("trigger=" + std::to_string(trigger) +
                   " mode=" + std::to_string(static_cast<int>(mode)));
      const auto predicted = pdns::DurableStore::fsck(dir);
      auto recovered = pdns::DurableStore::open(dir, config);
      ASSERT_TRUE(recovered.has_value());
      const std::uint64_t r = recovered->committed_batches();
      ASSERT_GE(r, acked) << "acked batch lost";
      ASSERT_LE(r, batches.size());
      EXPECT_EQ(recovered->snapshot_bytes(), want[r])
          << "acked=" << acked << " recovered=" << r;
      expect_fsck_predicted_open(predicted, *recovered);
      expect_second_round_complete(recovered, config, batches, want.back());
    }
  }
}

/// The repair itself under fire.  Two damaged directories — a torn tail
/// plus a damaged stale segment plus a leftover temporary, and a multi-fault
/// WAL gap — each take a repairing open whose every I/O op (segment cuts,
/// then the new segment) is crashed in every mode.  The next open must
/// still recover exactly what fsck predicted, leave nothing refused, and
/// take the rest of the batches.
TEST(CrashHarness, RepairingOpenRecoversExactlyAtEveryOp) {
  const auto batches = make_batches(0xBADC0DE, 8, 20);
  std::vector<std::vector<std::uint8_t>> want;
  for (std::uint64_t r = 0; r <= batches.size(); ++r) {
    want.push_back(serial_snapshot(batches, r));
  }
  const auto config = script_config(1);
  const auto torn = [&](const std::string& dir) {
    const auto manifest = pdns::load_manifest_file(
        pdns::list_manifests(dir).front().second);
    ASSERT_TRUE(manifest.has_value());
    const auto segments = pdns::Wal::list_segments(dir);
    ASSERT_LT(segments.front().first, manifest->wal_floor_segment);
    flip_byte_at(segments.front().second, 14);  // every record stale
    append_to_last_segment(dir, kTornTail);
    std::ofstream(dir + "/manifest-000000000099.nxm.tmp") << "junk";
  };
  const auto gap = [&](const std::string& dir) {
    std::uint64_t mutated = 0;
    for (const auto& file : chain_files(dir)) {
      if (file.find("delta-") == std::string::npos) {
        flip_byte_in_file(file, 700 + mutated++);
      }
    }
  };
  struct Damage {
    std::string tag;
    std::uint64_t repair_ops;  // segment cuts the open makes
    std::function<void(const std::string&)> apply;
  };
  for (const auto& [tag, repair_ops, damage] :
       {Damage{"torn", 2, torn}, Damage{"gap", 1, gap}}) {
    const std::string source = fresh_dir("repair_src_" + tag);
    {
      auto store = pdns::DurableStore::open(source, config);
      ASSERT_TRUE(store.has_value());
      ingest_range(*store, batches, 0, batches.size());
    }
    damage(source);
    const auto predicted = pdns::DurableStore::fsck(source);
    ASSERT_TRUE(predicted.wal_tail_truncated) << tag;

    const std::string dir = fresh_dir("repair_" + tag);
    const auto restore = [&] {
      std::filesystem::remove_all(dir);
      std::filesystem::copy(source, dir);
    };
    restore();
    CrashPoint probe;
    ASSERT_TRUE(pdns::DurableStore::open(dir, config, &probe).has_value());
    const std::uint64_t total_ops = probe.ops_seen();
    ASSERT_EQ(total_ops, repair_ops + 1) << tag << ": cuts, then the segment";

    for (std::uint64_t op = 0; op < total_ops; ++op) {
      for (const auto mode : CrashPoint::kAllModes) {
        SCOPED_TRACE(tag + " op=" + std::to_string(op) +
                     " mode=" + std::to_string(static_cast<int>(mode)));
        restore();
        CrashPoint crash(op, mode, /*seed=*/0x2E9A + op);
        EXPECT_FALSE(pdns::DurableStore::open(dir, config, &crash).has_value());
        EXPECT_TRUE(crash.crashed());
        auto recovered = pdns::DurableStore::open(dir, config);
        ASSERT_TRUE(recovered.has_value());
        const std::uint64_t r = recovered->committed_batches();
        EXPECT_EQ(r, predicted.recoverable_batches);
        EXPECT_EQ(recovered->snapshot_bytes(), want[r]);
        expect_fsck_predicted_open(predicted, *recovered);
        expect_second_round_complete(recovered, config, batches, want.back());
      }
    }
  }
}

}  // namespace
}  // namespace nxd
