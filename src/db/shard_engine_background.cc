// Background half of ShardEngine: flushes, compactions (value-log GC is
// one), and file garbage collection. Split from shard_engine.cc for
// readability; same class.

#include <algorithm>
#include <cassert>

#include "db/shard_engine.h"
#include "db/filename.h"
#include "db/internal_iterators.h"
#include "table/merging_iterator.h"
#include "util/backoff.h"
#include "util/clock.h"
#include "util/logging.h"

namespace lsmlab {

TableBuilderOptions ShardEngine::MakeBuilderOptions(int level) const {
  TableBuilderOptions topt;
  topt.comparator = &internal_comparator_;
  topt.block_size = options_.block_size;
  topt.block_restart_interval = options_.block_restart_interval;
  topt.creation_time_micros = options_.clock->NowMicros();
  topt.index_type = ResolveIndexTypeForLevel(options_, level);
  topt.learned_index_epsilon = options_.learned_index_epsilon;

  if (options_.filter_policy != nullptr) {
    double bits = monkey_bits_[static_cast<size_t>(
        std::min(level, options_.num_levels - 1))];
    topt.filter_bits_per_key = bits;
    if (options_.filter_allocation == FilterAllocation::kMonkey) {
      // Monkey varies bits per level; build with a per-level Bloom filter.
      // (Monkey allocation presumes Bloom-style filters; a level whose
      // optimal FPR reaches 1.0 gets no filter at all.)
      topt.filter_policy =
          bits >= 0.5 ? NewBloomFilterPolicy(bits) : nullptr;
    } else {
      topt.filter_policy = options_.filter_policy;
    }
  }
  return topt;
}

MergeContext ShardEngine::MakeMergeContext(SequenceNumber oldest_snapshot) {
  MergeContext ctx;
  ctx.options = &options_;
  ctx.dbname = dbname_;
  ctx.icmp = &internal_comparator_;
  ctx.table_cache = &table_cache_;
  ctx.vlog = vlog_.get();
  ctx.rate_limiter = compaction_rate_limiter_;
  ctx.stats = stats_;
  ctx.pool = pool_;
  ctx.oldest_snapshot = oldest_snapshot;
  ctx.pin_new_file_number = [this] {
    MutexLock lock(&mu_);
    uint64_t number = versions_->NewFileNumber();
    // The file exists on disk before any Version references it; pin it so a
    // concurrent RemoveObsoleteFiles does not garbage-collect it mid-build.
    pending_outputs_.insert(number);
    return number;
  };
  ctx.unpin_output = [this](uint64_t number) {
    MutexLock lock(&mu_);
    pending_outputs_.erase(number);
  };
  ctx.should_abort = [this] {
    MutexLock lock(&mu_);
    return shutting_down_;
  };
  ctx.make_builder_options = [this](int level) {
    return MakeBuilderOptions(level);
  };
  return ctx;
}

Status ShardEngine::WriteLevel0Table(std::shared_ptr<MemTable> mem,
                                     SequenceNumber oldest_snapshot,
                                     VersionEdit* edit, Dropped* dropped) {
  const MergeContext ctx = MakeMergeContext(oldest_snapshot);
  OutputWriter out(ctx, /*level=*/0, options_.clock->NowMicros(),
                   /*split=*/false, /*high_priority=*/true);
  MemTableIteratorAdapter iter(std::move(mem));
  iter.SeekToFirst();
  Dropped unrecorded;
  Status s = RunCompactionStream(ctx, /*bottommost=*/false, &iter,
                                 std::nullopt, /*should_abort=*/nullptr, &out,
                                 dropped != nullptr ? dropped : &unrecorded);
  if (s.ok() && !out.files().empty()) {
    edit->AddFile(0, out.files().front());
  }
  return s;
}

// ---------------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------------

void ShardEngine::MaybeScheduleFlush() {
  // A hard error gates new work; a soft one does not — its retry is already
  // scheduled and flush_scheduled_ stays true across the backoff window.
  if (flush_scheduled_ || shutting_down_ || imms_.empty() ||
      error_state_.hard()) {
    return;
  }
  flush_scheduled_ = true;
  pool_->Schedule([this] { BackgroundFlush(); }, ThreadPool::Priority::kHigh);
}

void ShardEngine::BackgroundFlush() {
  std::shared_ptr<MemTable> imm;
  SequenceNumber oldest_snapshot;
  {
    MutexLock lock(&mu_);
    if (shutting_down_ || imms_.empty()) {
      flush_scheduled_ = false;
      background_cv_.SignalAll();
      return;
    }
    imm = imms_.front();
    // The floor only rises afterwards, so fixing it here is merely
    // conservative (drops less).
    oldest_snapshot = OldestSnapshot();
  }

  // Build the L0 run outside the lock (tutorial §2.1.2: flush). A flush is
  // the first merge: it drops what no snapshot can see (§2.1.1). The flush
  // lets go of the memtable as it ends, so a Flush() caller woken by the
  // install finds the memtable, and its value log, held by readers only.
  VersionEdit edit;
  Dropped dropped;
  Status s =
      WriteLevel0Table(std::move(imm), oldest_snapshot, &edit, &dropped);
  const FileMetaData meta =
      edit.new_files().empty() ? FileMetaData() : edit.new_files()[0].second;
  bool manifest_failure = false;

  MutexLock lock(&mu_);
  if (meta.file_number != 0) {
    // Safe to unpin here: RemoveObsoleteFiles also needs mu_, and we hold it
    // continuously until the file is installed in a Version below.
    pending_outputs_.erase(meta.file_number);
  }
  if (s.ok() && meta.file_number != 0) {
    // Everything in logs older than the next immutable (or the active log)
    // is now durable in SSTables, so the manifest's log number — the "all
    // records below this are flushed" watermark — advances past them.
    uint64_t min_log = imm_log_numbers_.size() > 1 ? imm_log_numbers_[1]
                                                   : log_file_number_;
    edit.SetLogNumber(min_log);
    s = versions_->LogAndApply(&edit);
    manifest_failure = !s.ok();
    if (s.ok()) {
      stats_->flushes.fetch_add(1, std::memory_order_relaxed);
      stats_->flush_bytes_written.fetch_add(meta.file_size,
                                           std::memory_order_relaxed);
    }
  } else if (s.ok()) {
    // The stream dropped every entry (a put and its SingleDelete) or the
    // memtable held nothing (DeleteRange on an empty DB).
    stats_->flushes.fetch_add(1, std::memory_order_relaxed);
  }

  if (s.ok()) {
    dropped.RecordIn(stats_);
    imms_.pop_front();
    // The flushed memtable left the view's membership (its data now lives
    // in the installed L0 file); readers holding the old view still pin it.
    PublishReadView();
    if (options_.enable_wal) {
      // Every record of the flushed memtable's WAL is in the table now, or
      // was dropped by the flush. A WAL that fails to go is retried by the
      // next RemoveObsoleteFiles.
      (void)options_.env->RemoveFile(
          LogFileName(dbname_, imm_log_numbers_.front()));
    }
    imm_log_numbers_.pop_front();
    if (flush_retry_attempts_ > 0) {
      stats_->bg_retry_success.fetch_add(1, std::memory_order_relaxed);
      flush_retry_attempts_ = 0;
    }
    if (!error_state_.ok() && !error_state_.hard() &&
        error_state_.source == ErrorSource::kFlush) {
      error_state_.ClearCurrent();  // The retried flush repaired it.
    }
    LSMLAB_LOG_INFO(options_.info_log.get(),
                    "flushed memtable -> L0 file %llu (%llu bytes)",
                    static_cast<unsigned long long>(meta.file_number),
                    static_cast<unsigned long long>(meta.file_size));
  } else if (manifest_failure) {
    // The manifest may now end in a torn record; appending to it again is
    // never safe. Hard error — Resume() rolls to a fresh manifest.
    RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kManifest);
  } else if (options_.max_background_error_retries <= 0 ||
             flush_retry_attempts_ >= options_.max_background_error_retries) {
    // Retries disabled or exhausted: promote to hard (read-only mode).
    RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kFlush);
  } else {
    // Transient build failure (e.g. ENOSPC writing the L0 file): the
    // memtable is untouched, so the flush is safely repeatable. Keep
    // flush_scheduled_ true across the backoff window — it both prevents a
    // duplicate schedule and keeps Flush()/close paths waiting.
    const int attempt = flush_retry_attempts_++;
    RecordBackgroundError(s, ErrorSeverity::kSoft, ErrorSource::kFlush);
    stats_->bg_retries.fetch_add(1, std::memory_order_relaxed);
    const uint64_t delay = RetryDelayMicros(attempt);
    LSMLAB_LOG_WARN(options_.info_log.get(),
                    "flush retry %d in %llu us: %s", attempt + 1,
                    static_cast<unsigned long long>(delay),
                    s.ToString().c_str());
    pool_->Schedule([this, delay] { RetryFlushAfterBackoff(delay); },
                    ThreadPool::Priority::kHigh);
    background_cv_.SignalAll();
    return;
  }

  flush_scheduled_ = false;
  if (!imms_.empty()) {
    MaybeScheduleFlush();
  }
  MaybeScheduleCompaction();
  background_cv_.SignalAll();
}

Status ShardEngine::Flush() {
  // Seal through the writer queue: swapping the active memtable (and WAL
  // handles) must not race a leader's WAL write, which happens outside mu_.
  Status s = SealActiveMemTable();
  if (!s.ok()) {
    return s;
  }
  MutexLock lock(&mu_);
  // Soft errors keep us waiting — their retries normally drain imms_; if
  // they exhaust, promotion to hard wakes us with the terminal status.
  while (!error_state_.hard() && !imms_.empty()) {
    background_cv_.Wait(mu_);
  }
  return error_state_.hard() ? error_state_.status : Status::OK();
}

// ---------------------------------------------------------------------------
// Compaction: the background job engine
//
// The picker produces CompactionPlans; AdmitCompactionLocked turns each plan
// into a CompactionJob, registers its file and key-range claims, and hands it
// to the pool. Multiple jobs run concurrently when their claims are disjoint
// (the picker refuses conflicting plans), so each finished job can install
// its VersionEdit without coordinating with its siblings.
// ---------------------------------------------------------------------------

void ShardEngine::AdmitCompactionLocked(CompactionPlan plan) {
  RunningCompaction rc;
  rc.job_id = next_compaction_job_id_++;

  // Claim the plan's user-key hull at both levels it touches; the picker
  // rejects any overlapping plan until the claims are dropped.
  std::string smallest, largest;
  plan.KeyRange(options_.comparator, &smallest, &largest);
  rc.claims.push_back({plan.input_level, smallest, largest});
  if (plan.output_level != plan.input_level) {
    rc.claims.push_back({plan.output_level, smallest, largest});
  }
  for (const auto& f : plan.inputs) {
    compacting_files_.insert(f.file_number);
  }
  for (const auto& f : plan.overlap) {
    compacting_files_.insert(f.file_number);
  }

  // Fixed at admission: the floor only rises afterwards, so using the
  // admission-time value is merely conservative (drops less).
  auto job = std::make_shared<CompactionJob>(
      rc.job_id, std::move(plan), MakeMergeContext(OldestSnapshot()));
  rc.job = job;
  LSMLAB_LOG_INFO(options_.info_log.get(), "job %llu admitted: %s",
                  static_cast<unsigned long long>(rc.job_id),
                  job->plan().DebugString().c_str());
  running_compactions_.push_back(std::move(rc));
  ++compactions_running_;
  stats_->OnCompactionAdmitted();
  pool_->Schedule([this, job] { BackgroundCompaction(job); },
                  ThreadPool::Priority::kLow);
}

void ShardEngine::UnregisterCompactionLocked(uint64_t job_id) {
  for (auto it = running_compactions_.begin(); it != running_compactions_.end();
       ++it) {
    if (it->job_id != job_id) {
      continue;
    }
    const CompactionPlan& plan = it->job->plan();
    for (const auto& f : plan.inputs) {
      compacting_files_.erase(f.file_number);
    }
    for (const auto& f : plan.overlap) {
      compacting_files_.erase(f.file_number);
    }
    running_compactions_.erase(it);
    break;
  }
  --compactions_running_;
  stats_->OnCompactionFinished();
}

void ShardEngine::MaybeScheduleCompaction() {
  // Re-evaluate after every admission: the previous job's claims change
  // what remains admissible, and a single pass would leave admissible
  // disjoint work idle until the next flush. A pending retry holds the
  // admission loop closed for the backoff window (re-picking immediately
  // would defeat the backoff); a soft *flush* error does not block
  // compactions.
  if (shutting_down_ || manual_compaction_active_ || error_state_.hard() ||
      compaction_retry_pending_) {
    return;
  }
  // At most one running job per pool thread.
  const int limit = std::max(1, options_.background_threads);
  while (compactions_running_ < limit) {
    std::vector<ClaimedRange> claims;
    int deepest_output = -1;
    for (const auto& rc : running_compactions_) {
      for (const auto& claim : rc.claims) {
        deepest_output = std::max(deepest_output, claim.level);
        claims.push_back(claim);
      }
    }
    PickContext pick_ctx;
    pick_ctx.busy_files = &compacting_files_;
    pick_ctx.claimed = &claims;
    pick_ctx.deepest_running_output = deepest_output;
    auto plan = picker_->Pick(*versions_->current(),
                              options_.clock->NowMicros(), pick_ctx);
    if (!plan.has_value()) {
      return;
    }
    AdmitCompactionLocked(std::move(*plan));
  }
}

void ShardEngine::BackgroundCompaction(std::shared_ptr<CompactionJob> job) {
  const uint64_t start_micros = options_.clock->NowMicros();
  Status s;
  {
    MutexLock lock(&mu_);
    if (shutting_down_) {
      s = Status::Aborted("shutting down");
    }
  }
  bool run_failed = false;
  if (s.ok()) {
    s = job->Run();
    run_failed = !s.ok();
  }

  bool installed = false;
  if (s.ok()) {
    s = InstallCompaction(job.get());
    installed = s.ok();
  } else {
    job->Cleanup();
  }

  const uint64_t duration_micros = options_.clock->NowMicros() - start_micros;
  MutexLock lock(&mu_);
  stats_->RecordCompactionDuration(duration_micros);
  if (installed && compaction_retry_attempts_ > 0) {
    stats_->bg_retry_success.fetch_add(1, std::memory_order_relaxed);
    compaction_retry_attempts_ = 0;
    if (!error_state_.ok() && !error_state_.hard() &&
        error_state_.source == ErrorSource::kCompaction) {
      error_state_.ClearCurrent();
    }
  }
  if (!s.ok() && !s.IsAborted()) {
    // Shutdown aborts are expected and must not poison the DB status.
    if (!run_failed) {
      // LogAndApply failed: the manifest may end in a torn record, so no
      // further append to it is safe. Hard error; Resume() rolls it.
      RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kManifest);
    } else if (options_.max_background_error_retries <= 0 ||
               compaction_retry_attempts_ >=
                   options_.max_background_error_retries) {
      RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kCompaction);
    } else {
      // The job's outputs were cleaned up and no Version changed, so the
      // same work is safely repickable. Hold admissions closed for the
      // backoff window, then let the picker rediscover the work.
      const int attempt = compaction_retry_attempts_++;
      RecordBackgroundError(s, ErrorSeverity::kSoft, ErrorSource::kCompaction);
      stats_->bg_retries.fetch_add(1, std::memory_order_relaxed);
      compaction_retry_pending_ = true;
      const uint64_t delay = RetryDelayMicros(attempt);
      LSMLAB_LOG_WARN(options_.info_log.get(),
                      "compaction retry %d in %llu us: %s", attempt + 1,
                      static_cast<unsigned long long>(delay),
                      s.ToString().c_str());
      pool_->Schedule([this, delay] { RetryCompactionAfterBackoff(delay); },
                      ThreadPool::Priority::kLow);
    }
  }
  UnregisterCompactionLocked(job->id());
  MaybeScheduleCompaction();  // The freed claims may unblock more work.
  background_cv_.SignalAll();
}

Status ShardEngine::InstallCompaction(CompactionJob* job) {
  Status s;
  {
    MutexLock lock(&mu_);
    s = InstallCompactionLocked(job);
  }
  // Leaper-inspired cache re-warm: immediately reload the hot region that
  // the compaction displaced (tutorial §2.1.3). Outside the lock.
  if (s.ok() && options_.cache_rewarm_after_compaction &&
      block_cache_ != nullptr) {
    for (const auto& meta : job->outputs()) {
      std::shared_ptr<TableReader> reader;
      if (table_cache_.GetReader(meta, &reader).ok()) {
        reader->WarmCache();
      }
    }
  }
  return s;
}

Status ShardEngine::InstallCompactionLocked(CompactionJob* job) {
  Status s = versions_->LogAndApply(job->edit());
  for (const auto& meta : job->outputs()) {
    pending_outputs_.erase(meta.file_number);  // Installed (or doomed).
  }
  if (!s.ok()) {
    return s;
  }
  // New Version is current: route new readers to it.
  PublishReadView();
  const CompactionPlan& plan = job->plan();
  stats_->compactions.fetch_add(1, std::memory_order_relaxed);
  stats_->RecordCompactionAtLevel(plan.output_level, job->bytes_read(),
                                 job->bytes_written());
  LSMLAB_LOG_INFO(
      options_.info_log.get(),
      "job %llu installed: L%d->L%d in %d shard(s), %llu in, %llu out",
      static_cast<unsigned long long>(job->id()), plan.input_level,
      plan.output_level, job->num_shards(),
      static_cast<unsigned long long>(job->bytes_read()),
      static_cast<unsigned long long>(job->bytes_written()));
  RemoveObsoleteFiles();
  return s;
}

Status ShardEngine::CompactRange() {
  Status s = Flush();
  if (!s.ok()) {
    return s;
  }
  // Drain the automatic backlog first, then force every level down.
  s = WaitForBackgroundWork();
  if (!s.ok()) {
    return s;
  }
  return ManualCompaction(/*relocate_below=*/0);
}

Status ShardEngine::GarbageCollectVlog() {
  if (vlog_ == nullptr) {
    return Status::OK();
  }
  // The flush's seal rolls the value log, and it waits until no immutable
  // memtable is left: only tables, and memtables a reader still holds,
  // point below the new active log.
  Status s = Flush();
  if (!s.ok()) {
    return s;
  }
  return ManualCompaction(vlog_->active_file_number());
}

Status ShardEngine::ManualCompaction(uint64_t relocate_below) {
  // Exclusive mode, one manual pass at a time: block new automatic
  // admissions, then wait out any job admitted before.
  {
    MutexLock lock(&mu_);
    while (manual_compaction_active_ && !error_state_.hard()) {
      background_cv_.Wait(mu_);
    }
    if (error_state_.hard()) {
      return error_state_.status;
    }
    manual_compaction_active_ = true;
    while (compactions_running_ != 0 && !error_state_.hard()) {
      background_cv_.Wait(mu_);
    }
    if (error_state_.hard()) {
      manual_compaction_active_ = false;
      background_cv_.SignalAll();
      return error_state_.status;
    }
  }

  // One top-down pass, as LevelDB's CompactRange makes: a run flushed
  // meanwhile stays where it lands, so a writer cannot keep the pass going.
  // Each install's RemoveObsoleteFiles deletes the value logs nothing
  // points into any more. Manual mode holds off every other install that
  // runs RemoveObsoleteFiles (flushes do not run it), so a relocating job's
  // outputs are in a Version before the next deletion pass looks: their
  // log may by then be neither active nor any live memtable's.
  auto points_below = [relocate_below](const FileMetaData& f) {
    return f.oldest_vlog != 0 && f.oldest_vlog < relocate_below;
  };
  Status s;
  for (int level = 0; s.ok(); ++level) {
    std::shared_ptr<CompactionJob> job;
    {
      MutexLock lock(&mu_);
      const Version& v = *versions_->current();
      const int last = v.num_levels() - 1;
      if (level > last) {
        break;
      }
      const bool wanted =
          relocate_below != 0
              ? std::any_of(v.files(level).begin(), v.files(level).end(),
                            points_below)
              : level < last ? v.NumFiles(level) > 0
                             // A multi-run last level merges into one run
                             // (pure tiering).
                             : v.NumFiles(last) > 1 && v.IsTieredLevel(last);
      if (!wanted) {
        continue;
      }
      MergeContext ctx = MakeMergeContext(OldestSnapshot());
      ctx.relocate_below = relocate_below;
      job = std::make_shared<CompactionJob>(next_compaction_job_id_++,
                                            *picker_->PickManual(v, level),
                                            std::move(ctx));
    }
    s = job->Run();
    if (s.ok() && relocate_below != 0) {
      // Relocated values must be durable before a table points at them.
      s = vlog_->Sync();
      if (!s.ok()) {
        // The active log, which user writes share too, may have lost what
        // it was given: hard, as a failed WAL sync is.
        job->Cleanup();
        MutexLock lock(&mu_);
        RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kWal);
        break;
      }
    }
    if (s.ok()) {
      s = InstallCompaction(job.get());
      if (!s.ok()) {
        // Manifest append failed mid-manual-compaction: same torn-record
        // hazard as the background path, and equally hard.
        MutexLock lock(&mu_);
        RecordBackgroundError(s, ErrorSeverity::kHard, ErrorSource::kManifest);
      }
    } else {
      job->Cleanup();
    }
  }

  {
    MutexLock lock(&mu_);
    // A pass that installed nothing still lets go of the logs nothing
    // points into, such as one whose every value a flush dropped.
    RemoveObsoleteFiles();
    manual_compaction_active_ = false;
    MaybeScheduleCompaction();
    background_cv_.SignalAll();
  }
  return s;
}

Status ShardEngine::WaitForBackgroundWork() {
  MutexLock lock(&mu_);
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  while (!error_state_.hard() &&
         (flush_scheduled_ || compactions_running_ > 0 || !imms_.empty() ||
          compaction_retry_pending_ ||
          // Nothing running: an unconstrained pick now equals what the
          // admission loop would see, so "no plan" means the tree is fully
          // settled.
          picker_->Pick(*versions_->current(), options_.clock->NowMicros())
              .has_value())) {
    background_cv_.Wait(mu_);
  }
  return error_state_.hard() ? error_state_.status : Status::OK();
}

// ---------------------------------------------------------------------------
// Background-error recovery (DESIGN.md, "Failure model & recovery")
// ---------------------------------------------------------------------------

void ShardEngine::RecordBackgroundError(const Status& s, ErrorSeverity severity,
                               ErrorSource source) {
  const bool was_hard = error_state_.hard();
  error_state_.Record(s, severity, source, options_.clock->NowMicros());
  if (severity == ErrorSeverity::kSoft) {
    stats_->bg_error_soft.fetch_add(1, std::memory_order_relaxed);
  }
  if (!was_hard && error_state_.hard()) {
    stats_->bg_error_hard.fetch_add(1, std::memory_order_relaxed);
    LSMLAB_LOG_WARN(options_.info_log.get(),
                    "entering read-only mode: [%s/%s] %s",
                    ErrorSeverityName(error_state_.severity),
                    ErrorSourceName(error_state_.source),
                    s.ToString().c_str());
  }
  // Stalled writers and Flush()/WaitForBackgroundWork waiters re-examine
  // the error state.
  background_cv_.SignalAll();
}

uint64_t ShardEngine::RetryDelayMicros(int attempt) const {
  ExponentialBackoff backoff(options_.background_error_retry_initial_micros,
                             options_.background_error_retry_max_micros);
  return backoff.DelayMicros(attempt);
}

bool ShardEngine::SleepForRetry(uint64_t micros) {
  // Sleep in short chunks so shutdown never waits out a full backoff
  // window. The pool has no delayed scheduling; burning a worker for the
  // (capped, sub-second) delay is acceptable at lsmlab's scale.
  constexpr uint64_t kChunkMicros = 10 * 1000;
  uint64_t remaining = micros;
  while (true) {
    {
      MutexLock lock(&mu_);
      if (shutting_down_) {
        return false;
      }
    }
    if (remaining == 0) {
      return true;
    }
    const uint64_t step = std::min(remaining, kChunkMicros);
    options_.clock->SleepForMicros(step);
    remaining -= step;
  }
}

void ShardEngine::RetryFlushAfterBackoff(uint64_t delay_micros) {
  if (!SleepForRetry(delay_micros)) {
    // Shutting down: release the flush slot so teardown waiters make
    // progress.
    MutexLock lock(&mu_);
    flush_scheduled_ = false;
    background_cv_.SignalAll();
    return;
  }
  {
    MutexLock lock(&mu_);
    if (error_state_.hard()) {
      // A hard error landed during the backoff window; the DB is read-only
      // and flushing now would append to a possibly-torn manifest (and, on
      // success, delete the old WAL). Release the slot; Resume() reschedules.
      flush_scheduled_ = false;
      background_cv_.SignalAll();
      return;
    }
    if (!error_state_.ok() && error_state_.source == ErrorSource::kFlush) {
      // Drop the stale soft status before re-attempting; a new failure
      // re-records it (first-error provenance is preserved either way).
      error_state_.ClearCurrent();
    }
  }
  BackgroundFlush();  // flush_scheduled_ is still ours.
}

void ShardEngine::RetryCompactionAfterBackoff(uint64_t delay_micros) {
  const bool proceed = SleepForRetry(delay_micros);
  MutexLock lock(&mu_);
  compaction_retry_pending_ = false;
  if (proceed) {
    if (!error_state_.ok() && !error_state_.hard() &&
        error_state_.source == ErrorSource::kCompaction) {
      error_state_.ClearCurrent();
    }
    // Re-open the admission loop; the picker rediscovers the failed work
    // (and anything else that accumulated during the backoff window).
    MaybeScheduleCompaction();
  }
  background_cv_.SignalAll();
}

Status ShardEngine::Resume() {
  // resume_calls is recorded by the facade (once per user call, not once
  // per shard).
  ErrorState snapshot;
  {
    MutexLock lock(&mu_);
    snapshot = error_state_;
    if (snapshot.ok()) {
      return Status::OK();  // Nothing to recover from.
    }
    if (snapshot.needs_reopen()) {
      // A partially applied write group cannot be repaired in place —
      // flushing the memtable would persist unacked writes — and a
      // cross-shard batch whose commit record may or may not be durable is
      // settled only by the commit log a reopen reads. Only a reopen (which
      // replays each WAL record atomically) is safe.
      return snapshot.status;
    }
  }

  if (snapshot.hard() && snapshot.source == ErrorSource::kWal) {
    // Rotate off the poisoned WAL through the writer queue, so the handle
    // swap cannot race a leader's append (leaders write the WAL outside
    // mu_). Its acked contents live in the memtable being sealed; the wait
    // below flushes them to L0, restoring their durability.
    Status s = SealActiveMemTable(/*force=*/true);
    if (!s.ok()) {
      return s;
    }
  }

  MutexLock lock(&mu_);
  if (snapshot.hard() && snapshot.source == ErrorSource::kManifest) {
    // The old manifest may end in a torn record; snapshot current state
    // into a fresh manifest and repoint CURRENT at it.
    Status s = versions_->RollManifest();
    if (!s.ok()) {
      return s;
    }
  }
  if (error_state_.needs_reopen()) {
    // A concurrent write failed mid-apply, or a cross-shard commit record
    // failed, while we were recovering; that state is not resumable (see
    // above).
    return error_state_.status;
  }
  if (error_state_.severity != snapshot.severity ||
      error_state_.source != snapshot.source ||
      error_state_.status.ToString() != snapshot.status.ToString()) {
    // The error we repaired is no longer the current one: a different
    // error (e.g. a hard WAL failure from a concurrent writer) was recorded
    // after the snapshot. Clearing it here would skip its repair — a
    // poisoned WAL would stay active. Return it; the caller can Resume()
    // again to repair the new error. (If a soft retry already cleared the
    // snapshot error, this returns OK with nothing left to do.)
    return error_state_.status;
  }

  error_state_.ClearCurrent();
  flush_retry_attempts_ = 0;
  compaction_retry_attempts_ = 0;
  MaybeScheduleFlush();
  MaybeScheduleCompaction();
  background_cv_.SignalAll();
  LSMLAB_LOG_INFO(options_.info_log.get(), "resumed from [%s/%s] %s",
                  ErrorSeverityName(snapshot.severity),
                  ErrorSourceName(snapshot.source),
                  snapshot.status.ToString().c_str());

  if (snapshot.hard() && snapshot.source == ErrorSource::kWal) {
    // Resume() returning OK must mean previously acked writes are durable
    // again, so wait for the rescued memtable(s) to reach L0.
    while (!error_state_.hard() && !imms_.empty()) {
      background_cv_.Wait(mu_);
    }
    if (error_state_.hard()) {
      return error_state_.status;
    }
  }
  return Status::OK();
}

void ShardEngine::RemoveObsoleteFiles() {
  std::set<uint64_t> live;
  // The active memtable's log is the newest value log; older ones stay
  // while a live Version's file or a live memtable points into them.
  uint64_t oldest_vlog = log_file_number_;
  versions_->AddLiveFiles(&live, &oldest_vlog);
  std::erase_if(memtables_, [&](const std::weak_ptr<MemTable>& weak) {
    std::shared_ptr<MemTable> mem = weak.lock();
    if (mem != nullptr) {
      oldest_vlog = std::min(oldest_vlog, mem->log_number());
    }
    return mem == nullptr;
  });

  // The oldest unflushed memtable's WAL; every record below it is in a
  // table.
  const uint64_t min_log =
      imm_log_numbers_.empty() ? log_file_number_ : imm_log_numbers_.front();

  std::vector<std::string> children;
  if (!options_.env->GetChildren(dbname_, &children).ok()) {
    return;
  }
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) {
      continue;
    }
    bool keep = true;
    switch (type) {
      case FileType::kTableFile:
        // Live in some still-referenced Version, or an in-flight
        // flush/compaction output not yet installed in any Version.
        keep = live.count(number) > 0 || pending_outputs_.count(number) > 0;
        break;
      case FileType::kLogFile:
        keep = number >= min_log;
        break;
      case FileType::kManifestFile:
        keep = number >= versions_->manifest_file_number();
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      case FileType::kVlogFile:
        keep = number >= oldest_vlog;
        break;
      case FileType::kCurrentFile:
      case FileType::kCommitLogFile:  // Facade-owned; never engine garbage.
      case FileType::kShardsFile:
      case FileType::kUnknown:
        keep = true;
        break;
    }
    if (!keep) {
      // Best effort: a file that survives is retried on the next pass.
      (void)options_.env->RemoveFile(dbname_ + "/" + child);
    }
  }
}

}  // namespace lsmlab
