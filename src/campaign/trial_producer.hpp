// TrialProducer: sharded, counter-seeded trial generation feeding a
// PacketFarm (DESIGN.md §15).
//
// One cell batch used to be generated serially on the runner thread —
// at high worker counts the decode farm drained its queue faster than one
// thread could synthesize TX waveforms and push them through the channel,
// so workers idled between batches.  The producer shards a batch's trial
// indices over N persistent generator threads.  Because trial t's payload
// and channel seeds are pure functions of (spec, cell, t) and the farm
// folds outcomes in trial order, the shard assignment — which trials land
// on which producer, in which interleaving — cannot affect a single folded
// bit: campaign results and checkpoint bytes are identical for any
// producer count (tests/campaign/campaign_runner_test).
//
// Each shard owns a dsp::TrialScratch, so the whole generation side is
// allocation-free in steady state; rx payload buffers come from the farm's
// recycling pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "dsp/frontend.hpp"
#include "platform/packet_farm.hpp"

namespace adres::campaign {

struct TrialProducerConfig {
  /// Generator shards; 1 generates inline on the calling thread (no
  /// threads are spawned).
  int producers = 1;
};

class TrialProducer {
 public:
  explicit TrialProducer(TrialProducerConfig cfg);
  ~TrialProducer();

  TrialProducer(const TrialProducer&) = delete;
  TrialProducer& operator=(const TrialProducer&) = delete;

  /// Generates trials [firstTrial, firstTrial + count) of `cell` and
  /// submits each as an RxJob (id = trial index, tag = cellTag) to `farm`;
  /// txBits is resized to `count` and slot i receives trial
  /// firstTrial + i's transmitted payload (inner capacity reused).  Blocks
  /// until the whole batch has been submitted.  Not reentrant: one batch
  /// at a time, from one calling thread.
  void produceBatch(const CellSpec& cell, u32 cellTag, u64 firstTrial,
                    u64 count, platform::PacketFarm& farm,
                    std::vector<std::vector<u8>>& txBits);

 private:
  void shardMain();
  void generateOne(const CellSpec& cell, u32 cellTag, u64 trial,
                   platform::PacketFarm& farm, std::vector<u8>& bits,
                   dsp::TrialScratch& scratch);

  TrialProducerConfig cfg_;
  dsp::TrialScratch inlineScratch_;  ///< the producers == 1 path

  std::mutex mu_;  ///< guards the batch descriptor, batchGen_, inFlight_
  std::condition_variable work_;  ///< produceBatch -> shards: new batch
  std::condition_variable done_;  ///< shards -> produceBatch: batch drained
  u64 batchGen_ = 0;              ///< bumped per batch; shards wake on change
  u64 inFlight_ = 0;  ///< shards currently inside the claim loop
  bool shutdown_ = false;
  const CellSpec* cell_ = nullptr;
  u32 tag_ = 0;
  u64 first_ = 0;
  u64 count_ = 0;
  platform::PacketFarm* farm_ = nullptr;
  std::vector<std::vector<u8>>* txBits_ = nullptr;
  /// Dynamic sharding: each shard claims the next unclaimed batch index.
  /// Reset only between batches, when inFlight_ == 0 guarantees no shard
  /// still holds a stale claim loop.
  std::atomic<u64> nextIdx_{0};
  std::atomic<u64> remaining_{0};  ///< trials not yet generated+submitted
  std::vector<std::thread> shards_;
};

}  // namespace adres::campaign
