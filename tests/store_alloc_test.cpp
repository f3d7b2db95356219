// Heap-block gate for the pdns store: a replaced global operator new counts
// the blocks that copying, loading and absorbing a feed-scale store
// allocate.  Most domains are seen on one day only, and their daily series
// must not cost a heap block each.  Sanitizers replace operator new
// themselves, so tests/CMakeLists.txt builds this test only without them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "pdns/snapshot.hpp"
#include "pdns/store.hpp"
#include "synth/scale_models.hpp"

namespace {

std::atomic<std::uint64_t> g_blocks{0};

}  // namespace

void* operator new(std::size_t size) {
  g_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nxd::pdns {
namespace {

/// The store of the e2e `feed` workload at seed 1: scale 5e-7, 5% NoError
/// and 2% ServFail observations, about 116k domains.
const PassiveDnsStore& feed_store() {
  static const PassiveDnsStore store = [] {
    synth::HistoryStreamConfig config;
    config.scale = 5e-7;
    config.seed = 1;
    config.ok_fraction = 0.05;
    config.servfail_fraction = 0.02;
    PassiveDnsStore s;
    for (const auto& obs : synth::NxHistoryStream(config).all()) s.ingest(obs);
    return s;
  }();
  return store;
}

/// Heap blocks `fn` allocates, per domain of the feed store.
template <typename Fn>
double blocks_per_domain(Fn&& fn) {
  const auto before = g_blocks.load(std::memory_order_relaxed);
  fn();
  const auto blocks = g_blocks.load(std::memory_order_relaxed) - before;
  return static_cast<double>(blocks) /
         static_cast<double>(feed_store().distinct_domains());
}

// A vector-per-series store costs about 0.96 blocks per domain here (every
// domain with a daily series); the inline first entry leaves only the
// domains seen on two or more days, about 0.15.
constexpr double kMaxBlocksPerDomain = 0.25;

TEST(StoreAllocations, CopyAllocatesFewBlocksPerDomain) {
  const PassiveDnsStore& store = feed_store();
  ASSERT_GT(store.distinct_domains(), 100'000u);
  const double per_domain = blocks_per_domain([&] {
    const PassiveDnsStore copy(store);
    EXPECT_EQ(copy.distinct_domains(), store.distinct_domains());
  });
  EXPECT_LT(per_domain, kMaxBlocksPerDomain);
}

TEST(StoreAllocations, LoadSnapshotAllocatesFewBlocksPerDomain) {
  const auto image = save_snapshot(feed_store());
  const double per_domain = blocks_per_domain([&] {
    const auto loaded = load_snapshot(image);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->distinct_domains(), feed_store().distinct_domains());
  });
  EXPECT_LT(per_domain, kMaxBlocksPerDomain);
}

TEST(StoreAllocations, AbsorbIntoEmptyStoreAllocatesFewBlocksPerDomain) {
  const double per_domain = blocks_per_domain([&] {
    PassiveDnsStore merged;
    merged.absorb(feed_store());
    EXPECT_EQ(merged.distinct_domains(), feed_store().distinct_domains());
  });
  EXPECT_LT(per_domain, kMaxBlocksPerDomain);
}

}  // namespace
}  // namespace nxd::pdns
