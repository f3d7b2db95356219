#include "pdns/sharded_store.hpp"

#include <algorithm>
#include <memory>

#include "util/rng.hpp"
#include "util/spsc_ring.hpp"

namespace nxd::pdns {

ShardedStore::ShardedStore(std::size_t shard_count, StoreConfig config)
    : config_(config) {
  shard_count = std::clamp<std::size_t>(shard_count, 1, kMaxShards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards_.emplace_back(config_);
}

std::size_t ShardedStore::shard_of_key(std::string_view registered_key,
                                       std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  return util::fnv1a(registered_key) % shard_count;
}

std::size_t ShardedStore::shard_of(const dns::DomainName& name,
                                   std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  std::array<char, 160> buf;
  return shard_of_key(registered_domain_key(name, buf), shard_count);
}

void ShardedStore::bind_metrics(obs::MetricsRegistry& registry) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].bind_metrics(registry, {{"shard", std::to_string(i)}});
  }
  m_.batches = registry.counter("nxd_pdns_ingest_batches_total",
                                "Batches routed through ingest_batch");
  m_.batch_observations = registry.histogram(
      "nxd_pdns_batch_observations", "Observations per ingested batch");
}

void ShardedStore::ingest(const Observation& obs) {
  shards_[shard_of(obs.name, shards_.size())].ingest(obs);
}

void ShardedStore::ingest_batch(std::span<const Observation> batch,
                                util::WorkerPool& pool) {
  m_.batches.inc();
  m_.batch_observations.observe(batch.size());
  const std::size_t shard_count = shards_.size();
  if (shard_count == 1 || pool.thread_count() == 0) {
    for (const auto& obs : batch) {
      shards_[shard_of(obs.name, shard_count)].ingest(obs);
    }
    return;
  }
  if (pool.thread_count() < shard_count) {
    // Not enough workers to dedicate one per shard: pipelining would leave a
    // ring without its consumer scheduled while the producer blocks on it.
    ingest_batch_twopass(batch, pool);
    return;
  }

  // Pipelined path: caller routes (single producer), one worker folds per
  // shard (single consumer per ring).  Decode order is preserved per shard.
  using Ring = util::SpscRing<const Observation*>;
  std::vector<std::unique_ptr<Ring>> rings;
  rings.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    rings.push_back(std::make_unique<Ring>(kRingCapacity));
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    Ring* ring = rings[s].get();
    PassiveDnsStore* store = &shards_[s];
    pool.submit([ring, store] {
      const Observation* obs = nullptr;
      while (ring->pop_wait(obs)) store->ingest(*obs);
    });
  }
  for (const auto& obs : batch) {
    rings[shard_of(obs.name, shard_count)]->push(&obs);
  }
  for (auto& ring : rings) ring->close();
  pool.wait_idle();
}

void ShardedStore::ingest_batch_twopass(std::span<const Observation> batch,
                                        util::WorkerPool& pool) {
  const std::size_t shard_count = shards_.size();

  // Pass 1: route table.  Sliced so partitioning itself parallelizes.
  std::vector<std::uint8_t> route(batch.size());
  const std::size_t slices =
      std::max<std::size_t>(1, std::min(pool.thread_count() == 0
                                            ? std::size_t{1}
                                            : pool.thread_count(),
                                        shard_count));
  pool.run_indexed(slices, [&](std::size_t s) {
    const std::size_t lo = batch.size() * s / slices;
    const std::size_t hi = batch.size() * (s + 1) / slices;
    for (std::size_t i = lo; i < hi; ++i) {
      route[i] = static_cast<std::uint8_t>(shard_of(batch[i].name, shard_count));
    }
  });

  // Pass 2: one owner per shard; scans the route bytes, ingests its share.
  pool.run_indexed(shard_count, [&](std::size_t shard) {
    PassiveDnsStore& store = shards_[shard];
    const auto want = static_cast<std::uint8_t>(shard);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (route[i] == want) store.ingest(batch[i]);
    }
  });
}

ShardedStore::FrameIngestStats ShardedStore::ingest_frames(
    std::span<const std::vector<std::uint8_t>> frames,
    util::WorkerPool& pool) {
  std::vector<std::span<const std::uint8_t>> spans;
  spans.reserve(frames.size());
  for (const auto& frame : frames) spans.emplace_back(frame);
  return ingest_frames(std::span<const std::span<const std::uint8_t>>(spans),
                       pool);
}

std::vector<PassiveDnsStore> ShardedStore::take_shards() {
  std::vector<PassiveDnsStore> out;
  out.reserve(shards_.size());
  for (auto& shard : shards_) {
    out.push_back(std::move(shard));
    shard = PassiveDnsStore(config_);
  }
  return out;
}

ShardedStore::FrameIngestStats ShardedStore::ingest_frames(
    std::span<const std::span<const std::uint8_t>> frames,
    util::WorkerPool& pool) {
  FrameIngestStats stats;
  const std::size_t shard_count = shards_.size();

  const bool pipelined =
      shard_count > 1 && pool.thread_count() >= shard_count;

  using Ring = util::SpscRing<ObservationView>;
  std::vector<std::unique_ptr<Ring>> rings;
  if (pipelined) {
    rings.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      rings.push_back(std::make_unique<Ring>(kRingCapacity));
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      Ring* ring = rings[s].get();
      PassiveDnsStore* store = &shards_[s];
      pool.submit([ring, store] {
        ObservationView view;
        while (ring->pop_wait(view)) store->ingest_view(view);
      });
    }
  }

  for (const auto& frame : frames) {
    const auto parsed = FrameView::parse(frame);
    if (!parsed) {
      // Reject-whole: a frame that fails any structural check contributes
      // nothing — partial ingest would double-count on retransmit.
      ++stats.rejected_frames;
      continue;
    }
    ++stats.accepted_frames;
    stats.observations += parsed->size();
    m_.batches.inc();
    m_.batch_observations.observe(parsed->size());
    if (pipelined) {
      for (const ObservationView view : *parsed) {
        rings[shard_of_key(view.registered_key(), shard_count)]->push(view);
      }
    } else {
      for (const ObservationView view : *parsed) {
        shards_[shard_of_key(view.registered_key(), shard_count)]
            .ingest_view(view);
      }
    }
  }

  if (pipelined) {
    for (auto& ring : rings) ring->close();
    pool.wait_idle();
  }
  return stats;
}

PassiveDnsStore ShardedStore::merge() const {
  PassiveDnsStore out(config_);
  for (const auto& shard : shards_) out.absorb(shard);
  return out;
}

std::uint64_t ShardedStore::total_observations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.total_observations();
  return total;
}

std::uint64_t ShardedStore::nx_responses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.nx_responses();
  return total;
}

std::uint64_t ShardedStore::servfail_responses() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.servfail_responses();
  return total;
}

}  // namespace nxd::pdns
