#include "campaign/trial_producer.hpp"

#include "common/check.hpp"

namespace adres::campaign {

TrialProducer::TrialProducer(TrialProducerConfig cfg) : cfg_(std::move(cfg)) {
  ADRES_CHECK(cfg_.producers >= 1, "need at least one trial producer");
  if (cfg_.producers > 1) {
    shards_.reserve(static_cast<std::size_t>(cfg_.producers));
    for (int i = 0; i < cfg_.producers; ++i)
      shards_.emplace_back([this] { shardMain(); });
  }
}

TrialProducer::~TrialProducer() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_.notify_all();
  for (std::thread& t : shards_) t.join();
}

void TrialProducer::generateOne(const CellSpec& cell, u32 cellTag, u64 trial,
                                platform::PacketFarm& farm,
                                std::vector<u8>& bits,
                                dsp::TrialScratch& scratch) {
  Rng txRng(cell.trialSeed(trial, CellSpec::kTxStream));
  dsp::ChannelConfig cc = cell.channel;
  cc.seed = cell.trialSeed(trial, CellSpec::kChannelStream);
  platform::RxJob job;
  job.id = trial;
  job.tag = cellTag;
  // Recycled waveform storage: generateTrial writes in place, so
  // once the pool is warm the generate->submit->decode loop is closed.
  job.rx[0] = farm.acquireSampleBuffer();
  job.rx[1] = farm.acquireSampleBuffer();
  dsp::generateTrial(cell.modem, cc, txRng, bits, job.rx, scratch);
  farm.submit(std::move(job));
}

void TrialProducer::produceBatch(const CellSpec& cell, u32 cellTag,
                                 u64 firstTrial, u64 count,
                                 platform::PacketFarm& farm,
                                 std::vector<std::vector<u8>>& txBits) {
  txBits.resize(count);  // shrink keeps inner buffers; grow adds empties
  if (shards_.empty()) {
    for (u64 i = 0; i < count; ++i)
      generateOne(cell, cellTag, firstTrial + i, farm, txBits[i],
                  inlineScratch_);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    cell_ = &cell;
    tag_ = cellTag;
    first_ = firstTrial;
    count_ = count;
    farm_ = &farm;
    txBits_ = &txBits;
    nextIdx_.store(0, std::memory_order_relaxed);
    remaining_.store(count, std::memory_order_relaxed);
    ++batchGen_;
  }
  work_.notify_all();
  std::unique_lock<std::mutex> lk(mu_);
  // remaining_ == 0 alone is not enough: a shard may still sit between its
  // last generate and its final (over-)claim of nextIdx_, and the next
  // batch must not reset the claim counter under it — wait for every shard
  // to leave its claim loop.
  done_.wait(lk, [&] {
    return remaining_.load(std::memory_order_acquire) == 0 && inFlight_ == 0;
  });
}

void TrialProducer::shardMain() {
  dsp::TrialScratch scratch;  // per-shard working set, reused across trials
  u64 seenGen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    work_.wait(lk, [&] { return shutdown_ || batchGen_ != seenGen; });
    if (shutdown_) return;
    seenGen = batchGen_;
    const CellSpec* cell = cell_;
    const u32 tag = tag_;
    const u64 first = first_;
    const u64 count = count_;
    platform::PacketFarm* farm = farm_;
    std::vector<std::vector<u8>>* txBits = txBits_;
    ++inFlight_;
    lk.unlock();
    for (;;) {
      const u64 i = nextIdx_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      generateOne(*cell, tag, first + i, *farm, (*txBits)[i], scratch);
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
    lk.lock();
    if (--inFlight_ == 0 &&
        remaining_.load(std::memory_order_acquire) == 0) {
      done_.notify_all();
    }
  }
}

}  // namespace adres::campaign
