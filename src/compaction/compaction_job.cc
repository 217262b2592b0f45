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

namespace {
/// Charge the rate limiter in chunks so throttling is smooth but cheap.
constexpr uint64_t kRateLimitChunk = 256 << 10;
/// How many merge-loop iterations between shutdown-abort checks.
constexpr int kAbortCheckInterval = 512;
}  // namespace

CompactionJob::CompactionJob(uint64_t id, CompactionPlan plan, Context context)
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
  read_options.readahead_bytes = ctx_.options->compaction_readahead_bytes;
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
                                      ctx_.table_cache, ctx_.cache_dir_id,
                                      read_options));
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

  // Merge loop with the LevelDB drop rules plus single-delete annihilation.
  TableBuilderOptions topt = ctx_.make_builder_options(plan_.output_level);
  topt.oldest_tombstone_time_micros = oldest_tombstone_hint;

  std::unique_ptr<WritableFile> out_file;
  std::unique_ptr<TableBuilder> builder;
  uint64_t out_file_number = 0;
  InternalKey out_smallest, out_largest;
  uint64_t rate_limit_pending = 0;

  std::string current_user_key;
  bool has_current_user_key = false;
  // True once a full overwrite (value/tombstone/pointer — NOT a merge
  // operand) with seq <= oldest_snapshot has been seen for the current
  // user key: everything older is invisible to every reader and can drop.
  bool shadowed_below_snapshot = false;

  // Pending single-delete tombstone waiting to annihilate with an older put.
  bool pending_sd = false;
  std::string pending_sd_key;   // Internal key bytes.
  std::string pending_sd_ukey;  // Its user key.

  Status s;

  auto finish_output = [&]() -> Status {
    if (builder == nullptr) {
      return Status::OK();
    }
    Status fs = builder->Finish();
    if (fs.ok()) {
      fs = out_file->Sync();
    }
    if (fs.ok()) {
      fs = out_file->Close();
    }
    if (fs.ok()) {
      FileMetaData meta;
      meta.file_number = out_file_number;
      meta.file_size = builder->FileSize();
      meta.smallest = out_smallest;
      meta.largest = out_largest;
      meta.num_entries = builder->properties().num_entries;
      meta.num_tombstones = builder->properties().num_tombstones;
      meta.creation_time_micros = builder->properties().creation_time_micros;
      meta.oldest_tombstone_time_micros =
          meta.num_tombstones > 0 ? oldest_tombstone_hint : 0;
      shard->outputs.push_back(meta);
      shard->bytes_written += meta.file_size;
      ctx_.stats->compaction_bytes_written.fetch_add(
          meta.file_size, std::memory_order_relaxed);
    }
    builder.reset();
    out_file.reset();
    return fs;
  };

  auto emit = [&](const Slice& internal_key, const Slice& value) -> Status {
    // Cut outputs only on user-key boundaries: every version and merge
    // operand of a user key must land in one file, or a leveled level ends
    // up with two files sharing a boundary key — Get would stop at the
    // first and miss the entries in the second, and the level invariant
    // (disjoint user-key ranges) rejects the install.
    if (builder != nullptr && split_outputs_ &&
        builder->FileSize() >= ctx_.options->target_file_size &&
        ctx_.icmp->user_comparator()->Compare(ExtractUserKey(internal_key),
                                              out_largest.user_key()) != 0) {
      Status fs = finish_output();
      if (!fs.ok()) {
        return fs;
      }
    }
    if (builder == nullptr) {
      out_file_number = ctx_.pin_new_file_number();
      Status es = ctx_.options->env->NewWritableFile(
          TableFileName(ctx_.dbname, out_file_number), &out_file);
      if (!es.ok()) {
        ctx_.unpin_output(out_file_number);
        out_file_number = 0;
        return es;
      }
      builder = std::make_unique<TableBuilder>(topt, out_file.get());
      out_smallest.DecodeFrom(internal_key);
    }
    out_largest.DecodeFrom(internal_key);
    builder->Add(internal_key, value);

    // SILK-style bandwidth throttling; compactions request at low priority
    // so flushes pass them under contention.
    rate_limit_pending += internal_key.size() + value.size();
    if (rate_limit_pending >= kRateLimitChunk) {
      if (ctx_.rate_limiter != nullptr) {
        ctx_.rate_limiter->Request(rate_limit_pending,
                                   /*high_priority=*/false);
      }
      rate_limit_pending = 0;
    }
    return Status::OK();
  };

  auto flush_pending_sd = [&]() -> Status {
    if (!pending_sd) {
      return Status::OK();
    }
    pending_sd = false;
    SequenceNumber sd_seq = ExtractSequence(pending_sd_key);
    if (plan_.bottommost && sd_seq <= ctx_.oldest_snapshot) {
      // Nothing below can match it: the tombstone itself can go.
      ++shard->tombstones_dropped;
      return Status::OK();
    }
    return emit(pending_sd_key, Slice());
  };

  int since_abort_check = 0;
  for (; s.ok() && input->Valid(); input->Next()) {
    if (++since_abort_check >= kAbortCheckInterval) {
      since_abort_check = 0;
      if (failed_.load(std::memory_order_relaxed) ||
          (ctx_.should_abort && ctx_.should_abort())) {
        s = Status::Aborted("compaction job ", std::to_string(id_));
        break;
      }
    }

    Slice internal_key = input->key();
    ParsedInternalKey parsed;
    if (!ParseInternalKey(internal_key, &parsed)) {
      s = Status::Corruption("malformed key in compaction input");
      break;
    }
    if (shard->end.has_value() &&
        ucmp->Compare(parsed.user_key, *shard->end) >= 0) {
      break;  // Next shard's territory.
    }

    // Single-delete annihilation: the pending SD meets the next entry.
    if (pending_sd) {
      if (ucmp->Compare(parsed.user_key, pending_sd_ukey) == 0) {
        SequenceNumber sd_seq = ExtractSequence(pending_sd_key);
        if ((parsed.type == kTypeValue || parsed.type == kTypeVlogPointer) &&
            parsed.sequence <= ctx_.oldest_snapshot &&
            sd_seq <= ctx_.oldest_snapshot) {
          // Annihilate the pair: drop both the SD and the put it deletes,
          // whose value, when separated, becomes vlog garbage.
          pending_sd = false;
          ++shard->tombstones_dropped;
          ++shard->entries_dropped;
          if (parsed.type == kTypeVlogPointer && ctx_.vlog != nullptr) {
            VlogPointer ptr;
            if (ptr.DecodeFrom(input->value())) {
              shard->vlog_garbage.emplace_back(ptr.file_number, ptr.size);
            }
          }
          // Older versions of this key fall through to the normal rule
          // with the annihilated pair acting as the shadow.
          current_user_key = parsed.user_key.ToString();
          has_current_user_key = true;
          shadowed_below_snapshot = true;
          continue;
        }
        // Not annihilable: emit the SD, then process this entry normally.
        s = flush_pending_sd();
        if (!s.ok()) {
          break;
        }
      } else {
        s = flush_pending_sd();
        if (!s.ok()) {
          break;
        }
      }
    }

    bool drop = false;
    if (!has_current_user_key ||
        ucmp->Compare(parsed.user_key, Slice(current_user_key)) != 0) {
      // First occurrence (newest version) of this user key.
      current_user_key = parsed.user_key.ToString();
      has_current_user_key = true;
      shadowed_below_snapshot = false;
    }

    if (shadowed_below_snapshot) {
      // A newer full overwrite visible to every snapshot shadows this entry
      // (§2.1.1-B: updates/deletes applied lazily, here at merge time).
      drop = true;
      ++shard->entries_dropped;
      if (parsed.type == kTypeVlogPointer && ctx_.vlog != nullptr) {
        VlogPointer ptr;
        if (ptr.DecodeFrom(input->value())) {
          shard->vlog_garbage.emplace_back(ptr.file_number, ptr.size);
        }
      }
    } else if (parsed.type == kTypeDeletion &&
               parsed.sequence <= ctx_.oldest_snapshot && plan_.bottommost) {
      // Tombstone at the bottom: everything it shadows is gone, so the
      // tombstone itself is garbage (§2.1.2: delete persistence).
      drop = true;
      shadowed_below_snapshot = true;
      ++shard->tombstones_dropped;
    } else if (parsed.type == kTypeSingleDeletion &&
               parsed.sequence <= ctx_.oldest_snapshot) {
      // Buffer: it annihilates with the first older put of the same key.
      pending_sd = true;
      pending_sd_key.assign(internal_key.data(), internal_key.size());
      pending_sd_ukey = parsed.user_key.ToString();
      shadowed_below_snapshot = true;
      continue;
    } else if (parsed.type != kTypeMerge &&
               parsed.sequence <= ctx_.oldest_snapshot) {
      // Values, tombstones, and vlog pointers shadow everything older;
      // merge operands do NOT — they depend on the base value below them.
      shadowed_below_snapshot = true;
    }

    if (!drop) {
      s = emit(internal_key, input->value());
    }
  }
  if (s.ok()) {
    s = flush_pending_sd();
  }
  if (s.ok() && !input->status().ok()) {
    s = input->status();
  }
  if (s.ok()) {
    s = finish_output();
  }
  if (rate_limit_pending > 0 && ctx_.rate_limiter != nullptr) {
    ctx_.rate_limiter->Request(rate_limit_pending, /*high_priority=*/false);
  }

  if (!s.ok() && builder != nullptr) {
    // Abandon the in-progress output; completed shard outputs are removed
    // by Cleanup().
    builder->Abandon();
    builder.reset();
    out_file.reset();
    // Best effort; an orphan is reclaimed by RemoveObsoleteFiles.
    (void)ctx_.options->env->RemoveFile(
        TableFileName(ctx_.dbname, out_file_number));
    ctx_.unpin_output(out_file_number);
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
    for (auto& meta : shard.outputs) {
      outputs_.push_back(meta);
    }
    bytes_written_ += shard.bytes_written;
    tombstones_dropped_ += shard.tombstones_dropped;
    entries_dropped_ += shard.entries_dropped;
    if (ctx_.vlog != nullptr) {
      for (const auto& [file_number, size] : shard.vlog_garbage) {
        ctx_.vlog->AddGarbage(file_number, size);
      }
    }
  }
  ctx_.stats->tombstones_dropped.fetch_add(tombstones_dropped_,
                                           std::memory_order_relaxed);
  ctx_.stats->entries_dropped_obsolete.fetch_add(entries_dropped_,
                                                 std::memory_order_relaxed);

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

void CompactionJob::ReleaseOutputPins() {
  for (const auto& meta : outputs_) {
    ctx_.unpin_output(meta.file_number);
  }
}

}  // namespace lsmlab
