#include "pdns/sharded_store.hpp"

#include <algorithm>
#include <memory>

#include "util/rng.hpp"
#include "util/spsc_ring.hpp"

namespace nxd::pdns {

ShardedStore::ShardedStore(std::size_t shard_count, StoreConfig config)
    : config_(config), own_registry_(std::make_unique<obs::MetricsRegistry>()) {
  shard_count = std::clamp<std::size_t>(shard_count, 1, kMaxShards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards_.emplace_back(config_);
  acquire_metrics(*own_registry_);
}

std::size_t ShardedStore::shard_of_key(std::string_view registered_key,
                                       std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  return util::fnv1a(registered_key) % shard_count;
}

void ShardedStore::acquire_metrics(obs::MetricsRegistry& registry) {
  m_.shards.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    m_.shards.emplace_back(registry,
                           obs::LabelSet{{"shard", std::to_string(i)}});
  }
  m_.batches = registry.counter("nxd_pdns_ingest_frames_total",
                                "SIE frames routed through ingest_frames");
  m_.batch_observations = registry.histogram(
      "nxd_pdns_batch_observations", "Observations per ingested batch");
}

void ShardedStore::bind_metrics(obs::MetricsRegistry& registry) {
  if (own_registry_ != nullptr) registry.absorb(own_registry_->snapshot());
  acquire_metrics(registry);
  own_registry_.reset();
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
  std::vector<IngestTotals> before;
  before.reserve(shard_count);
  for (const auto& shard : shards_) before.push_back(shard.ingest_totals());

  // Pipelining needs a worker per shard: with fewer, a ring could sit
  // without its consumer scheduled while the producer blocks on it, so
  // smaller pools route and fold inline instead.
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
  for (std::size_t s = 0; s < shard_count; ++s) {
    m_.shards[s].add(before[s], shards_[s].ingest_totals());
  }
  return stats;
}

PassiveDnsStore ShardedStore::merge() const {
  PassiveDnsStore out(config_);
  for (const auto& shard : shards_) out.absorb(shard);
  return out;
}

std::uint64_t ShardedStore::sum(
    std::uint64_t IngestTotals::*total) const noexcept {
  std::uint64_t out = 0;
  for (const auto& shard : shards_) out += shard.ingest_totals().*total;
  return out;
}

}  // namespace nxd::pdns
