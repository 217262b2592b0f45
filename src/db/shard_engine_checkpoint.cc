// Per-shard checkpoint capture and checksum scrub (DESIGN.md, "Checkpoint &
// restore"). Split from shard_engine.cc: these are control-plane operations
// with no coupling to the write or read hot paths.

#include <string>
#include <vector>

#include "db/filename.h"
#include "db/shard_engine.h"
#include "util/backoff.h"
#include "util/lock_order.h"

namespace lsmlab {

Status ShardEngine::LinkFileWithRetry(const std::string& src,
                                      const std::string& target) {
  const int max_attempts =
      options_.max_background_error_retries > 0
          ? options_.max_background_error_retries
          : 1;
  ExponentialBackoff backoff(options_.background_error_retry_initial_micros,
                             options_.background_error_retry_max_micros);
  Status s;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    s = options_.env->LinkFile(src, target);
    if (s.ok() || s.IsNotFound()) {
      // NotFound is permanent: the source vanished (or never existed);
      // backing off cannot bring it back.
      return s;
    }
    if (attempt + 1 < max_attempts) {
      options_.clock->SleepForMicros(backoff.DelayMicros(attempt));
    }
  }
  return s;
}

Status ShardEngine::CheckpointInto(const std::string& dir) {
  Status s = options_.env->CreateDir(dir);
  if (!s.ok() && !options_.env->FileExists(dir)) {
    return s;
  }

  // Cut the WAL: rotate to a fresh log so everything the checkpoint covers
  // lives in sealed (fully fsynced) logs, and later writes land in a log the
  // checkpoint excludes. Without a WAL the memtables are the only record of
  // recent writes, so persist them as tables instead.
  if (options_.enable_wal) {
    s = SealActiveMemTable(/*force=*/false, /*for_checkpoint=*/true);
  } else {
    s = Flush();
  }
  if (!s.ok()) {
    return s;
  }

  MutexLock lock(&mu_);
  if (error_state_.hard()) {
    return error_state_.status;
  }
  // Holding mu_ for the whole capture freezes version installs (flush and
  // compaction installs need mu_) and file deletion (RemoveObsoleteFiles /
  // DeleteObsoleteWalsLocked require mu_), so the pinned version, the WAL
  // set on disk, and the manifest snapshot describe one instant. Linking is
  // metadata-only.
  lock_rank::IoAllowedSection checkpoint_io(
      "Checkpoint capture links immutable files and snapshots the manifest "
      "under mu_ by design: mu_ is what freezes the instant being captured, "
      "exactly like the sanctioned obsolete-file GC pattern.");

  std::shared_ptr<const Version> version = versions_->current();

  // Sealed WALs and vlogs: every WAL on disk except the active one, which
  // only holds records from after the cut (the checkpoint seal rotated
  // before we got here), and every vlog. Each log a sealed WAL or a table
  // points into is durable: the roll that sealed it synced it, and vlog GC
  // syncs the log it relocates into before its tables install.
  std::vector<std::string> children;
  s = options_.env->GetChildren(dbname_, &children);
  if (!s.ok()) {
    return s;
  }
  for (const std::string& child : children) {
    uint64_t number = 0;
    FileType type = FileType::kUnknown;
    if (!ParseFileName(child, &number, &type)) {
      continue;
    }
    const bool sealed_wal =
        type == FileType::kLogFile && number != log_file_number_;
    const bool vlog_file = type == FileType::kVlogFile;
    if (!sealed_wal && !vlog_file) {
      continue;
    }
    s = LinkFileWithRetry(dbname_ + "/" + child, dir + "/" + child);
    if (!s.ok()) {
      return s;
    }
  }

  // Every table of the pinned version. Tables are immutable once installed
  // and mu_ keeps them from being GC'd mid-capture.
  for (int level = 0; level < version->num_levels(); ++level) {
    for (const FileMetaData& f : version->files(level)) {
      s = LinkFileWithRetry(TableFileName(dbname_, f.file_number),
                            TableFileName(dir, f.file_number));
      if (!s.ok()) {
        return s;
      }
    }
  }

  // Manifest last: it names exactly the files linked above, so a checkpoint
  // directory with a readable CURRENT+manifest is complete by construction.
  // (The facade still gates opens on its CHECKPOINT completion record.)
  return versions_->WriteCheckpointManifest(dir);
}

Status ShardEngine::VerifyChecksums() {
  std::shared_ptr<const ReadView> view = AcquireReadView();
  const std::shared_ptr<const Version>& version = view->version;

  ReadOptions scrub_options;
  scrub_options.verify_checksums = true;
  scrub_options.fill_cache = false;  // A scrub must not evict the hot set.

  for (int level = 0; level < version->num_levels(); ++level) {
    for (const FileMetaData& f : version->files(level)) {
      compaction_rate_limiter_->Request(f.file_size);
      std::shared_ptr<TableReader> reader;
      Status s = table_cache_.GetReader(f, &reader);
      if (s.ok()) {
        std::unique_ptr<Iterator> iter = reader->NewIterator(scrub_options);
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        }
        s = iter->status();
      }
      if (!s.ok()) {
        stats_->scrub_corruptions.fetch_add(1, std::memory_order_relaxed);
        return Status::Corruption(
            "scrub: " + TableFileName(dbname_, f.file_number) + " (level " +
                std::to_string(level) + ")",
            s.ToString());
      }
      stats_->scrub_bytes_verified.fetch_add(f.file_size,
                                             std::memory_order_relaxed);
    }
  }

  if (vlog_ == nullptr) {
    return Status::OK();
  }
  // Vlog records carry no per-record checksum; parsing every record and
  // echoing its key exercises the length headers and framing end to end,
  // which is what vlog reads themselves verify.
  std::vector<std::string> children;
  Status s = options_.env->GetChildren(dbname_, &children);
  if (!s.ok()) {
    return s;
  }
  for (const std::string& child : children) {
    uint64_t number = 0;
    FileType type = FileType::kUnknown;
    if (!ParseFileName(child, &number, &type) ||
        type != FileType::kVlogFile) {
      continue;
    }
    uint64_t bytes = 0;
    // Size is only for rate pacing; a failed stat just skips the pacing.
    (void)options_.env->GetFileSize(dbname_ + "/" + child, &bytes);
    compaction_rate_limiter_->Request(bytes);
    s = vlog_->ForEachRecord(
        number,
        [](const Slice&, const Slice&, const VlogPointer&) { return true; });
    if (!s.ok() && !options_.env->FileExists(VlogFileName(dbname_, number))) {
      continue;  // Deleted since the listing: nothing points into it.
    }
    if (!s.ok()) {
      stats_->scrub_corruptions.fetch_add(1, std::memory_order_relaxed);
      return Status::Corruption("scrub: " + VlogFileName(dbname_, number),
                                s.ToString());
    }
    stats_->scrub_bytes_verified.fetch_add(bytes, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace lsmlab
