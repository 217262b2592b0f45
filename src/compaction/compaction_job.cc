#include "compaction/compaction_job.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>

#include "db/filename.h"
#include "db/internal_iterators.h"
#include "table/merging_iterator.h"
#include "version/version_set.h"

namespace lsmlab {

CompactionJob::CompactionJob(uint64_t id, CompactionPlan plan,
                             MergeContext context)
    : id_(id),
      plan_(std::move(plan)),
      ctx_(std::move(context)),
      split_outputs_(!LevelIsTiered(ctx_.options->data_layout,
                                    plan_.output_level,
                                    ctx_.options->num_levels)) {}

Slice CompactionJob::CopyToArena(const Slice& key) {
  char* mem = arena_.Allocate(key.size());
  std::memcpy(mem, key.data(), key.size());
  return Slice(mem, key.size());
}

std::vector<Slice> CompactionJob::ComputeShardBoundaries() const {
  // Splitting is only sound when the output forms one sorted run built from
  // disjoint key shards — i.e. a leveled output. A tiered output must stay
  // a single file (one run), so it is never sharded.
  if (!split_outputs_ || ctx_.pool == nullptr ||
      ctx_.options->max_subcompactions <= 1) {
    return {};
  }

  // Candidate split points: the smallest user key of every input/overlap
  // file. File boundaries approximate an even byte distribution and are
  // cheap — no index sampling needed.
  const Comparator* ucmp = ctx_.options->comparator;
  std::vector<Slice> candidates;
  auto add = [&](const FileMetaData& f) {
    candidates.push_back(f.smallest.user_key());
  };
  for (const auto& f : plan_.inputs) add(f);
  for (const auto& f : plan_.overlap) add(f);
  std::sort(candidates.begin(), candidates.end(),
            [&](const Slice& a, const Slice& b) {
              return ucmp->Compare(a, b) < 0;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [&](const Slice& a, const Slice& b) {
                                 return ucmp->Compare(a, b) == 0;
                               }),
                   candidates.end());
  // The global minimum would open with an empty first shard; drop it.
  if (!candidates.empty()) {
    candidates.erase(candidates.begin());
  }
  if (candidates.empty()) {
    return {};
  }

  // Do not create more shards than the data can fill: at least one target
  // file's worth of input per shard, and never more than max_subcompactions.
  uint64_t by_bytes = std::max<uint64_t>(
      1, plan_.InputBytes() / std::max<uint64_t>(1, ctx_.options->target_file_size));
  size_t want = std::min<size_t>(
      static_cast<size_t>(ctx_.options->max_subcompactions),
      std::min(static_cast<size_t>(by_bytes), candidates.size() + 1));
  if (want <= 1) {
    return {};
  }

  std::vector<Slice> boundaries;
  boundaries.reserve(want - 1);
  for (size_t k = 1; k < want; ++k) {
    size_t idx = k * candidates.size() / want;
    boundaries.push_back(candidates[idx]);
  }
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end(),
                               [&](const Slice& a, const Slice& b) {
                                 return ucmp->Compare(a, b) == 0;
                               }),
                   boundaries.end());
  return boundaries;
}

namespace {

/// Readahead window of each compaction input run.
constexpr size_t kCompactionReadaheadBytes = 1 << 20;

}  // namespace

Status CompactionJob::RunShard(Shard* shard) {
  const Comparator* ucmp = ctx_.options->comparator;

  // One merge child per input run and one for the overlap run, each
  // trimmed to the files intersecting [begin, end). A run child opens one
  // file at a time, so a run holds one open input file and one readahead
  // buffer however many files it spans.
  std::vector<SortedRun> runs;
  AppendSortedRuns(*ctx_.options, plan_.input_level, plan_.inputs, &runs);
  AppendSortedRuns(*ctx_.options, plan_.output_level, plan_.overlap, &runs);
  ReadOptions read_options;
  read_options.fill_cache = false;  // Compactions must not wipe the cache.
  // Prefetch input blocks so merge work overlaps the sequential reads.
  read_options.readahead_bytes = kCompactionReadaheadBytes;
  std::vector<std::unique_ptr<Iterator>> children;
  uint64_t oldest_tombstone_hint = 0;
  for (SortedRun run : runs) {
    while (!run.empty() && shard->begin.has_value() &&
           ucmp->Compare(run.front().largest.user_key(), *shard->begin) < 0) {
      run = run.subspan(1);  // Entirely below this shard.
    }
    while (!run.empty() && shard->end.has_value() &&
           ucmp->Compare(run.back().smallest.user_key(), *shard->end) >= 0) {
      run = run.first(run.size() - 1);  // At or above the shard's end.
    }
    if (run.empty()) {
      continue;
    }
    for (const FileMetaData& f : run) {
      if (f.oldest_tombstone_time_micros != 0 &&
          (oldest_tombstone_hint == 0 ||
           f.oldest_tombstone_time_micros < oldest_tombstone_hint)) {
        oldest_tombstone_hint = f.oldest_tombstone_time_micros;
      }
    }
    // The job owns its input metadata and the inputs stay live until it
    // installs, so no Version pin is needed.
    children.push_back(NewRunIterator(nullptr, run, ctx_.icmp,
                                      ctx_.table_cache, read_options));
  }
  if (oldest_tombstone_hint == 0) {
    oldest_tombstone_hint = ctx_.options->clock->NowMicros();
  }

  auto input = NewMergingIterator(ctx_.icmp, std::move(children));
  if (shard->begin.has_value()) {
    // Seek to the first internal key of the shard's first user key.
    std::string seek_target;
    AppendInternalKey(
        &seek_target,
        ParsedInternalKey(*shard->begin, kMaxSequenceNumber,
                          kValueTypeForSeek));
    input->Seek(seek_target);
  } else {
    input->SeekToFirst();
  }

  OutputWriter out(ctx_, plan_.output_level, oldest_tombstone_hint,
                   split_outputs_, /*high_priority=*/false);
  Status s = RunCompactionStream(
      ctx_, plan_.bottommost, input.get(), shard->end,
      [this] {
        return failed_.load(std::memory_order_relaxed) || ctx_.should_abort();
      },
      &out, &shard->dropped);
  // Finished outputs stay pinned: the job installs them, or Cleanup()
  // removes them.
  shard->outputs = out.files();
  for (const FileMetaData& meta : shard->outputs) {
    ctx_.stats->compaction_bytes_written.fetch_add(meta.file_size,
                                                   std::memory_order_relaxed);
  }
  return s;
}

void CompactionJob::ExecuteShard(size_t index) {
  Shard* shard = &shards_[index];
  if (failed_.load(std::memory_order_relaxed)) {
    shard->status = Status::Aborted("sibling shard failed");
  } else {
    shard->status = RunShard(shard);
  }
  if (!shard->status.ok()) {
    failed_.store(true, std::memory_order_relaxed);
  }
  {
    // Notify while holding the lock: the coordinator may destroy this job
    // the moment its wait-predicate sees the final count, so the signal
    // must be ordered before the waiter can re-acquire shard_mu_.
    MutexLock lock(&shard_mu_);
    ++shards_done_;
    shard_cv_.SignalAll();
  }
}

Status CompactionJob::Run() {
  assert(!ran_);
  ran_ = true;

  bytes_read_ = plan_.InputBytes();
  ctx_.stats->compaction_bytes_read.fetch_add(bytes_read_,
                                              std::memory_order_relaxed);

  // Partition into shards. Boundary keys live in the job arena so the
  // concurrent shard loops can reference them safely.
  std::vector<Slice> boundaries;
  for (const Slice& b : ComputeShardBoundaries()) {
    boundaries.push_back(CopyToArena(b));
  }
  shards_.resize(boundaries.size() + 1);
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) {
      shards_[i].begin = boundaries[i - 1];
    }
    if (i < boundaries.size()) {
      shards_[i].end = boundaries[i];
    }
  }

  if (shards_.size() == 1) {
    shards_[0].status = RunShard(&shards_[0]);
  } else {
    ctx_.stats->subcompactions.fetch_add(shards_.size(),
                                         std::memory_order_relaxed);
    // Coordinator runs shard 0 itself and helps drain the kMedium queue
    // while waiting, so progress is guaranteed even when every pool worker
    // is itself a coordinator.
    for (size_t i = 1; i < shards_.size(); ++i) {
      ctx_.pool->Schedule([this, i] { ExecuteShard(i); },
                          ThreadPool::Priority::kMedium);
    }
    ExecuteShard(0);
    while (true) {
      {
        MutexLock lock(&shard_mu_);
        if (shards_done_ == shards_.size()) {
          break;
        }
      }
      if (ctx_.pool->TryRunTask(ThreadPool::Priority::kMedium)) {
        continue;  // Ran someone's shard; re-check.
      }
      // Queue empty: every remaining shard is running on some thread and
      // will signal when done.
      MutexLock lock(&shard_mu_);
      while (shards_done_ != shards_.size()) {
        shard_cv_.Wait(shard_mu_);
      }
    }
  }

  // Error aggregation: real errors outrank aborts (an abort is often just
  // the echo of a sibling's failure).
  Status result;
  for (const auto& shard : shards_) {
    if (!shard.status.ok() && !shard.status.IsAborted()) {
      result = shard.status;
      break;
    }
  }
  if (result.ok()) {
    for (const auto& shard : shards_) {
      if (!shard.status.ok()) {
        result = shard.status;
        break;
      }
    }
  }
  if (!result.ok()) {
    return result;
  }

  // Stitch: shards are key-ordered, so concatenating their outputs yields
  // the sorted output run; one edit installs everything atomically.
  for (auto& shard : shards_) {
    for (const FileMetaData& meta : shard.outputs) {
      outputs_.push_back(meta);
      bytes_written_ += meta.file_size;
    }
    shard.dropped.RecordIn(ctx_.stats);
  }

  for (const auto& f : plan_.inputs) {
    edit_.RemoveFile(plan_.input_level, f.file_number);
  }
  for (const auto& f : plan_.overlap) {
    edit_.RemoveFile(plan_.output_level, f.file_number);
  }
  for (const auto& meta : outputs_) {
    edit_.AddFile(plan_.output_level, meta);
  }
  return Status::OK();
}

void CompactionJob::Cleanup() {
  for (auto& shard : shards_) {
    for (const auto& meta : shard.outputs) {
      // Best effort; an orphan is reclaimed by RemoveObsoleteFiles.
      (void)ctx_.options->env->RemoveFile(
          TableFileName(ctx_.dbname, meta.file_number));
      ctx_.unpin_output(meta.file_number);
    }
    shard.outputs.clear();
  }
  outputs_.clear();
}

}  // namespace lsmlab
