#include "compaction/compaction_stream.h"

#include "db/filename.h"

namespace lsmlab {

namespace {
/// Charge the rate limiter in chunks so throttling is smooth but cheap.
constexpr uint64_t kRateLimitChunk = 256 << 10;
/// How many entries between abort checks.
constexpr int kAbortCheckInterval = 512;
}  // namespace

OutputWriter::OutputWriter(const MergeContext& ctx, int level,
                           uint64_t oldest_tombstone_micros, bool split,
                           bool high_priority)
    : ctx_(ctx),
      builder_options_(ctx.make_builder_options(level)),
      split_(split),
      high_priority_(high_priority) {
  builder_options_.oldest_tombstone_time_micros = oldest_tombstone_micros;
}

Status OutputWriter::Add(const Slice& internal_key, const Slice& value) {
  // Cut outputs only on user-key boundaries: every version and merge
  // operand of a user key must land in one file, or a leveled level ends
  // up with two files sharing a boundary key — Get would stop at the
  // first and miss the entries in the second, and the level invariant
  // (disjoint user-key ranges) rejects the install.
  if (builder_ != nullptr && split_ &&
      builder_->FileSize() >= ctx_.options->target_file_size &&
      ctx_.icmp->CompareUserKey(ExtractUserKey(internal_key),
                                largest_.user_key()) != 0) {
    Status s = FinishFile();
    if (!s.ok()) {
      return s;
    }
  }
  if (builder_ == nullptr) {
    file_number_ = ctx_.pin_new_file_number();
    Status s = ctx_.options->env->NewWritableFile(
        TableFileName(ctx_.dbname, file_number_), &file_);
    if (!s.ok()) {
      ctx_.unpin_output(file_number_);
      return s;
    }
    builder_ = std::make_unique<TableBuilder>(builder_options_, file_.get());
    smallest_.DecodeFrom(internal_key);
  }
  largest_.DecodeFrom(internal_key);
  builder_->Add(internal_key, value);
  if (ExtractValueType(internal_key) == kTypeVlogPointer) {
    VlogPointer ptr;
    if (ptr.DecodeFrom(value) &&
        (oldest_vlog_ == 0 || ptr.file_number < oldest_vlog_)) {
      oldest_vlog_ = ptr.file_number;
    }
  }

  // Flushes and compactions share one background-I/O budget.
  rate_limit_pending_ += internal_key.size() + value.size();
  if (rate_limit_pending_ >= kRateLimitChunk) {
    ctx_.rate_limiter->Request(rate_limit_pending_, high_priority_);
    rate_limit_pending_ = 0;
  }
  return Status::OK();
}

Status OutputWriter::FinishFile() {
  Status s = builder_->Finish();
  if (s.ok()) {
    s = file_->Sync();
  }
  if (s.ok()) {
    s = file_->Close();
  }
  if (!s.ok()) {
    Abandon();
    return s;
  }
  FileMetaData meta;
  meta.file_number = file_number_;
  meta.file_size = builder_->FileSize();
  meta.smallest = smallest_;
  meta.largest = largest_;
  const TableProperties& props = builder_->properties();
  meta.num_entries = props.num_entries;
  meta.num_tombstones = props.num_tombstones;
  meta.creation_time_micros = props.creation_time_micros;
  meta.oldest_tombstone_time_micros =
      props.num_tombstones > 0 ? props.oldest_tombstone_time_micros : 0;
  meta.oldest_vlog = oldest_vlog_;
  oldest_vlog_ = 0;
  // The reader pin travels with the metadata into the installed Version,
  // so the reader the compaction re-warm opens is the one lookups find.
  meta.table_handle = std::make_shared<TableHandle>();
  files_.push_back(std::move(meta));
  builder_.reset();
  file_.reset();
  return s;
}

Status OutputWriter::Finish() {
  Status s = builder_ != nullptr ? FinishFile() : Status::OK();
  if (rate_limit_pending_ > 0) {
    ctx_.rate_limiter->Request(rate_limit_pending_, high_priority_);
    rate_limit_pending_ = 0;
  }
  return s;
}

void OutputWriter::Abandon() {
  if (builder_ == nullptr) {
    return;
  }
  builder_.reset();
  file_.reset();
  // Best effort; an orphan is reclaimed by RemoveObsoleteFiles.
  (void)ctx_.options->env->RemoveFile(TableFileName(ctx_.dbname, file_number_));
  ctx_.unpin_output(file_number_);
}

void Dropped::RecordIn(Statistics* stats) const {
  stats->entries_dropped_obsolete.fetch_add(entries,
                                            std::memory_order_relaxed);
  stats->tombstones_dropped.fetch_add(tombstones, std::memory_order_relaxed);
}

Status RunCompactionStream(const MergeContext& ctx, bool bottommost,
                           Iterator* input, const std::optional<Slice>& end,
                           const std::function<bool()>& should_abort,
                           OutputWriter* out, Dropped* dropped) {
  const InternalKeyComparator* icmp = ctx.icmp;
  const SequenceNumber floor = ctx.oldest_snapshot;

  std::string current_user_key;
  bool has_current_user_key = false;
  // True once a full overwrite (value/tombstone/pointer — NOT a merge
  // operand) with seq <= floor has been seen for the current user key:
  // everything older is invisible to every reader and can drop.
  bool shadowed_below_snapshot = false;
  // Pending single-delete tombstone (internal key bytes) waiting to
  // annihilate with an older put.
  bool pending_sd = false;
  std::string pending_sd_key;

  // Vlog GC: a kept pointer into a log below the cutoff moves its value
  // into the active log. The new pointer keeps the entry's internal key, so
  // a newer write of the key still shadows it, and a snapshot that sees the
  // old version sees the copy.
  std::string relocated_value, relocated_pointer;
  auto emit = [&](const Slice& internal_key,
                  const ParsedInternalKey& parsed) -> Status {
    VlogPointer ptr;
    if (parsed.type != kTypeVlogPointer || ctx.relocate_below == 0 ||
        !ptr.DecodeFrom(input->value()) ||
        ptr.file_number >= ctx.relocate_below) {
      return out->Add(internal_key, input->value());
    }
    Status s = ctx.vlog->Read(ptr, parsed.user_key, &relocated_value);
    if (s.ok()) {
      s = ctx.vlog->Append(parsed.user_key, relocated_value, &ptr);
    }
    if (!s.ok()) {
      return s;
    }
    relocated_pointer.clear();
    ptr.EncodeTo(&relocated_pointer);
    return out->Add(internal_key, relocated_pointer);
  };
  auto flush_pending_sd = [&]() -> Status {
    if (!pending_sd) {
      return Status::OK();
    }
    pending_sd = false;
    if (bottommost) {
      // Nothing below can match it: the tombstone itself can go.
      ++dropped->tombstones;
      return Status::OK();
    }
    return out->Add(pending_sd_key, Slice());
  };

  Status s;
  int since_abort_check = 0;
  for (; s.ok() && input->Valid(); input->Next()) {
    if (should_abort && ++since_abort_check >= kAbortCheckInterval) {
      since_abort_check = 0;
      if (should_abort()) {
        s = Status::Aborted("compaction stream abandoned");
        break;
      }
    }

    Slice internal_key = input->key();
    ParsedInternalKey parsed;
    if (!ParseInternalKey(internal_key, &parsed)) {
      s = Status::Corruption("malformed key in compaction input");
      break;
    }
    if (end.has_value() && icmp->CompareUserKey(parsed.user_key, *end) >= 0) {
      break;  // Next shard's territory.
    }

    // Single-delete annihilation: the pending SD meets the next entry. An
    // SD is buffered only at or below the floor, and the put right below it
    // is older still.
    if (pending_sd) {
      if ((parsed.type == kTypeValue || parsed.type == kTypeVlogPointer) &&
          icmp->CompareUserKey(parsed.user_key,
                               ExtractUserKey(pending_sd_key)) == 0) {
        // Annihilate the pair: drop both the SD and the put it deletes.
        // The SD already shadows this key's older versions.
        pending_sd = false;
        ++dropped->tombstones;
        ++dropped->entries;
        continue;
      }
      // Not annihilable: emit the SD, then process this entry normally.
      s = flush_pending_sd();
      if (!s.ok()) {
        break;
      }
    }

    if (!has_current_user_key ||
        icmp->CompareUserKey(parsed.user_key, Slice(current_user_key)) != 0) {
      // First occurrence (newest version) of this user key.
      current_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_current_user_key = true;
      shadowed_below_snapshot = false;
    }

    if (shadowed_below_snapshot) {
      // A newer full overwrite visible to every snapshot shadows this entry
      // (§2.1.1-B: updates/deletes applied lazily, here at merge time).
      ++dropped->entries;
      continue;
    }
    if (parsed.sequence <= floor && parsed.type != kTypeMerge) {
      // Values, tombstones, and vlog pointers shadow everything older;
      // merge operands do NOT — they depend on the base value below them.
      shadowed_below_snapshot = true;
      if (parsed.type == kTypeDeletion && bottommost) {
        // Tombstone at the bottom: everything it shadows is gone, so the
        // tombstone itself is garbage (§2.1.2: delete persistence).
        ++dropped->tombstones;
        continue;
      }
      if (parsed.type == kTypeSingleDeletion) {
        // Buffer: it annihilates with the first older put of the same key.
        pending_sd = true;
        pending_sd_key.assign(internal_key.data(), internal_key.size());
        continue;
      }
    }
    s = emit(internal_key, parsed);
  }
  if (s.ok()) {
    s = flush_pending_sd();
  }
  if (s.ok()) {
    s = input->status();
  }
  if (s.ok()) {
    s = out->Finish();
  } else {
    out->Abandon();
  }
  return s;
}

}  // namespace lsmlab
