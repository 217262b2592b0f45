#include "runner.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "db/db.h"
#include "db/write_batch.h"
#include "filter/filter_policy.h"

namespace lsmbench {

namespace {

using lsmlab::DB;
using lsmlab::Options;

constexpr size_t kMaxLoggedFailures = 5;
constexpr size_t kPreloadBatch = 1000;

double CurrentRssBytes() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
      pages_resident = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      total += entry.file_size();
    }
  }
  return total;
}

// CPU pinning of the whole process. Co-tenants of a shared box slow single
// CPUs for seconds at a time, and the box gives between one and four CPUs of
// parallel throughput from minute to minute; a run that used whatever was
// free measured the box, not the engine. So the client and the DB's
// background threads share one CPU: before each round's open and before each
// slice, every thread of the process moves to the CPU where a short spin
// probe runs fastest.
class ProcessCpu {
 public:
  ProcessCpu() { have_mask_ = sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0; }

  void MoveToQuietest() {
    if (!have_mask_) {
      return;
    }
    int best_cpu = -1;
    int64_t best_ns = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_) && Pin(0, cpu)) {
        int64_t ns = ProbeNanos();
        if (best_cpu < 0 || ns < best_ns) {
          best_cpu = cpu;
          best_ns = ns;
        }
      }
    }
    if (best_cpu < 0) {
      return;
    }
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      Pin(static_cast<pid_t>(std::atoi(task.path().filename().c_str())), best_cpu);
    }
  }

 private:
  static bool Pin(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof(one), &one) == 0;
  }

  // Best of three ~0.3 ms spins.
  static int64_t ProbeNanos() {
    int64_t best = 0;
    for (int i = 0; i < 3; ++i) {
      int64_t start = NowNanos();
      uint64_t x = static_cast<uint64_t>(start);
      for (int j = 0; j < 200000; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      }
      int64_t ns = NowNanos() - start + static_cast<int64_t>(x & 1);
      best = i == 0 ? ns : std::min(best, ns);
    }
    return best;
  }

  cpu_set_t allowed_{};
  bool have_mask_ = false;
};

uint64_t RoundSeed(uint64_t seed, int round) {
  return seed * 0x9E3779B97F4A7C15ull +
         static_cast<uint64_t>(round + 1) * 0xBF58476D1CE4E5B9ull;
}

double Seconds(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// The closed-loop client: issues one op, times the API call alone, then
// checks the answer against the model.
class Client {
 public:
  Client(DB* db, const KeyTable& keys, const OpStream& stream, Model* model,
         Tracer* tracer, RunResult* result)
      : db_(db), keys_(keys), stream_(stream), model_(model), tracer_(tracer),
        result_(result), mg_keys_(kMultiGetKeys) {}

  uint64_t user_bytes_written() const { return user_bytes_written_; }
  uint64_t executed(OpType type) const { return executed_[static_cast<size_t>(type)]; }

  void Execute(const Op& op) {
    if (tracer_ != nullptr) {
      tracer_->BeginOp();
    }
    int64_t start = 0;
    int64_t end = 0;
    bool ok = false;
    switch (op.type) {
      case OpType::kGet: {
        Slice key = op.absent ? stream_.AbsentKey(op.arg) : keys_.Key(op.key);
        start = NowNanos();
        Status s = db_->Get(read_options_, key, &value_);
        end = NowNanos();
        ok = op.absent ? s.IsNotFound()
                       : s.ok() && ValueMatches(value_, op.key, model_->version(op.key));
        break;
      }
      case OpType::kMultiGet: {
        const uint32_t* batch = &stream_.batch_keys[op.arg];
        for (int i = 0; i < kMultiGetKeys; ++i) {
          mg_keys_[static_cast<size_t>(i)] = keys_.Key(batch[i]);
        }
        start = NowNanos();
        std::vector<Status> statuses = db_->MultiGet(read_options_, mg_keys_, &mg_values_);
        end = NowNanos();
        ok = statuses.size() == size_t{kMultiGetKeys} &&
             mg_values_.size() == size_t{kMultiGetKeys};
        for (size_t i = 0; ok && i < statuses.size(); ++i) {
          ok = statuses[i].ok() &&
               ValueMatches(mg_values_[i], batch[i], model_->version(batch[i]));
        }
        break;
      }
      case OpType::kScan: {
        size_t n = 0;
        Status s;
        start = NowNanos();
        {
          std::unique_ptr<lsmlab::Iterator> it = db_->NewIterator(read_options_);
          for (it->Seek(keys_.Key(op.key)); n < size_t{kScanKeys} && it->Valid();
               it->Next(), ++n) {
            scan_keys_[n].assign(it->key().data(), it->key().size());
            scan_values_[n].assign(it->value().data(), it->value().size());
          }
          s = it->status();
        }
        end = NowNanos();
        model_->ExpectedScan(op.key, kScanKeys, &expected_);
        ok = s.ok() && n == expected_.size();
        for (size_t i = 0; ok && i < n; ++i) {
          uint32_t k = expected_[i];
          ok = Slice(scan_keys_[i]) == keys_.Key(k) &&
               ValueMatches(scan_values_[i], k, model_->version(k));
        }
        break;
      }
      case OpType::kPut: {
        uint32_t version = model_->version(op.key) + 1;
        EncodeValue(op.key, version, put_value_);
        start = NowNanos();
        Status s = db_->Put(write_options_, keys_.Key(op.key),
                            Slice(put_value_, kValueSize));
        end = NowNanos();
        ok = s.ok();
        if (ok) {
          model_->set(op.key, version);
        }
        user_bytes_written_ += kKeySize + kValueSize;
        break;
      }
    }
    if (tracer_ != nullptr) {
      tracer_->EndOp(op.type, start, end);
    }
    result_->latency[static_cast<size_t>(op.type)].Add(static_cast<uint64_t>(end - start));
    ++executed_[static_cast<size_t>(op.type)];
    ++result_->attempted;
    if (!ok) {
      ++result_->failed;
      if (result_->failures.size() < kMaxLoggedFailures) {
        result_->failures.push_back(std::string(OpName(op.type)) + " of " +
                                    keys_.Key(op.key).ToString() +
                                    (op.absent ? " (absent)" : ""));
      }
    }
  }

 private:
  DB* const db_;
  const KeyTable& keys_;
  const OpStream& stream_;
  Model* const model_;
  Tracer* const tracer_;
  RunResult* const result_;
  uint64_t user_bytes_written_ = 0;
  std::array<uint64_t, kNumOpTypes> executed_{};

  const lsmlab::ReadOptions read_options_;
  const lsmlab::WriteOptions write_options_;
  std::string value_;
  std::vector<Slice> mg_keys_;
  std::vector<std::string> mg_values_;
  std::string scan_keys_[kScanKeys];
  std::string scan_values_[kScanKeys];
  std::vector<uint32_t> expected_;
  char put_value_[kValueSize] = {};
};

// Preload + drain + warm of an opened DB (set-up time includes the open).
// Preloaded keys are written in shuffled order, kPreloadBatch per
// WriteBatch, and flushed so the phase starts with an empty memtable;
// warm-up reads are checked like phase reads.
Status SetUp(const RunConfig& config, const KeyTable& keys,
             const OpStream& stream, Model* model, DB* db) {
  const size_t preload = config.spec.preload_keys;
  if (preload > 0) {
    lsmlab::WriteBatch batch;
    char value[kValueSize];
    for (size_t i = 0; i < preload; ++i) {
      uint32_t k = stream.load_order[i];
      EncodeValue(k, 1, value);
      batch.Put(keys.Key(k), Slice(value, kValueSize));
      model->set(k, 1);
      if ((i + 1) % kPreloadBatch == 0 || i + 1 == preload) {
        Status s = db->Write(lsmlab::WriteOptions(), &batch);
        if (!s.ok()) {
          return s;
        }
        batch.Clear();
      }
    }
    Status s = db->Flush();
    if (s.ok()) {
      s = db->WaitForBackgroundWork();
    }
    if (!s.ok()) {
      return s;
    }
  }
  std::string value;
  for (uint32_t k : stream.warm_keys) {
    Status s = db->Get(lsmlab::ReadOptions(), keys.Key(k), &value);
    if (!s.ok() || !ValueMatches(value, k, model->version(k))) {
      return Status::Corruption("warm-up read of " + keys.Key(k).ToString() +
                                " returned a wrong answer: " + s.ToString());
    }
  }
  return Status::OK();
}

void CollectLayer(DB* db, LayerTotals* layer) {
  const lsmlab::Statistics& st = *db->statistics();
  layer->point_lookups += st.point_lookups.load();
  layer->writes += st.writes.load();
  layer->stall_micros += st.write_stall_micros.load() + st.write_slowdown_micros.load();
  layer->flushes += st.flushes.load();
  layer->flush_bytes += st.flush_bytes_written.load();
  layer->filter_checks += st.filter_checks.load();
  layer->filter_false_positives += st.filter_false_positives.load();
  layer->runs_skipped += st.runs_skipped_by_filter.load();
  layer->runs_probed += st.runs_probed.load();
  layer->table_cache_hits += st.table_cache_hits.load();
  layer->table_cache_misses += st.table_cache_misses.load();
  layer->learned_hits += st.learned_index_hits.load();
  layer->learned_fallbacks += st.learned_index_fallbacks.load();
  layer->index_bytes_loaded += st.index_bytes_loaded.load();
  layer->compactions += st.compactions.load();
  layer->compaction_read += st.compaction_bytes_read.load();
  layer->compaction_written += st.compaction_bytes_written.load();
  layer->max_compactions_running =
      std::max<uint64_t>(layer->max_compactions_running, st.max_compactions_running.load());
  layer->entries_dropped += st.entries_dropped_obsolete.load() + st.tombstones_dropped.load();
  layer->io_batches += st.io_batches.load();
  layer->readahead_hits += st.readahead_hits.load();
  layer->readahead_misses += st.readahead_misses.load();
  layer->compaction_micros.Merge(st.CompactionDurations());

  lsmlab::CacheStats cache = db->block_cache()->GetStats();
  layer->cache_hits += cache.hits;
  layer->cache_misses += cache.misses;
  layer->cache_evictions += cache.evictions;
  layer->rounds += 1;
  layer->cache_usage_bytes += db->block_cache()->usage();
  layer->sorted_runs += static_cast<uint64_t>(db->TotalSortedRuns());
  layer->sst_bytes += db->TotalSstBytes();
}

Status RunRound(const RunConfig& config, int round,
                const KeyTable& keys, Env* env, OpStream* stream,
                ProcessCpu* cpu, RunResult* result,
                double* rss_base) {
  const WorkloadSpec& spec = config.spec;
  GenerateStream(spec, RoundSeed(config.seed, round), stream);
  Model model(keys.size());
  const std::string dbname = config.dir + "/db-" + std::to_string(round);
  const Options options = BenchOptions(env);
  (void)lsmlab::DestroyDB(options, dbname);  // Nothing there, or a stale DB.
  if (round == 0) {
    *rss_base = CurrentRssBytes();
  }

  RoundFigures fig;
  cpu->MoveToQuietest();
  int64_t setup_start = NowNanos();
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbname, &db);
  if (s.ok()) {
    s = SetUp(config, keys, *stream, &model, db.get());
  }
  if (!s.ok()) {
    return s;
  }
  fig.setup_s = Seconds(setup_start, NowNanos());
  const int setup_runs = db->TotalSortedRuns();

  if (config.break_oracle && round == 0) {
    for (const Op& op : stream->ops) {
      if (op.type == OpType::kGet && !op.absent &&
          model.version(op.key) != 0) {
        model.set(op.key, model.version(op.key) + 1);
        break;
      }
    }
  }

  db->statistics()->Reset();
  db->block_cache()->ResetStats();
  if (config.tracer != nullptr) {
    config.tracer->set_recording(true);
  }
  Client client(db.get(), keys, *stream, &model, config.tracer, result);
  double phase_s = 0;
  size_t slices = 0;
  for (size_t begin = 0; begin < stream->ops.size(); begin += spec.slice_ops) {
    size_t end = std::min(stream->ops.size(), begin + spec.slice_ops);
    cpu->MoveToQuietest();
    int64_t slice_start = NowNanos();
    for (size_t i = begin; i < end; ++i) {
      client.Execute(stream->ops[i]);
    }
    s = db->WaitForBackgroundWork();
    if (!s.ok()) {
      break;
    }
    double slice_s = Seconds(slice_start, NowNanos());
    phase_s += slice_s;
    result->slice_ops_per_s.push_back(static_cast<double>(end - begin) / slice_s);
    ++slices;
  }
  if (config.tracer != nullptr) {
    config.tracer->set_recording(false);
  }
  if (!s.ok()) {
    return s;
  }

  const lsmlab::Statistics& st = *db->statistics();
  fig.write_amp = static_cast<double>(st.wal_bytes_written.load() +
                                      st.flush_bytes_written.load() +
                                      st.compaction_bytes_written.load()) /
                  static_cast<double>(client.user_bytes_written());
  uint64_t live_keys = 0;
  for (uint32_t k = 0; k < keys.size(); ++k) {
    live_keys += model.version(k) != 0 ? 1 : 0;
  }
  fig.space_amp = static_cast<double>(DirBytes(dbname)) /
                  static_cast<double>(live_keys * (kKeySize + kValueSize));
  CollectLayer(db.get(), &result->layer);
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    result->executed[t] += client.executed(static_cast<OpType>(t));
  }
  result->rounds.push_back(fig);
  std::printf("# round %d: setup %.3f s (%d sorted runs), phase %.3f s, kops/s by slice:",
              round, fig.setup_s, setup_runs, phase_s);
  const std::vector<double>& speeds = result->slice_ops_per_s;
  for (size_t i = speeds.size() - slices; i < speeds.size(); ++i) {
    std::printf(" %.0f", speeds[i] / 1000);
  }
  std::printf("\n");
  db.reset();
  return lsmlab::DestroyDB(options, dbname);
}

}  // namespace

size_t LatencyHistogram::Bucket(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) {
    return static_cast<size_t>(ns);  // Exact below 512 ns.
  }
  const int exp = 63 - __builtin_clzll(ns);
  const uint64_t sub = (ns >> (exp - kSubBits)) - (uint64_t{1} << kSubBits);
  return (static_cast<size_t>(exp - kSubBits + 1) << kSubBits) + static_cast<size_t>(sub);
}

double LatencyHistogram::PercentileMicros(double p) const {
  if (total_ == 0) {
    return 0;
  }
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(total_))));
  uint64_t seen = 0;
  size_t b = 0;
  while (seen + counts_[b] < rank) {
    seen += counts_[b++];
  }
  if (b < (size_t{1} << kSubBits)) {
    return static_cast<double>(b) / 1000.0;
  }
  const int exp = static_cast<int>(b >> kSubBits) + kSubBits - 1;
  const double width = std::ldexp(1.0, exp - kSubBits);
  const double low = static_cast<double>((size_t{1} << kSubBits) + (b & ((size_t{1} << kSubBits) - 1))) * width;
  return (low + (width - 1) / 2) / 1000.0;
}

Options BenchOptions(Env* env) {
  Options options;
  options.env = env;
  options.filter_policy = lsmlab::NewBloomFilterPolicy(10);
  options.background_threads = 2;
  return options;
}

Status RunWorkload(const RunConfig& config, RunResult* result) {
  const WorkloadSpec& spec = config.spec;
  const int rounds = RoundsFor(spec, config.seconds);
  std::filesystem::create_directories(config.dir);
  KeyTable keys(KeySpaceSize(spec));
  std::unique_ptr<TimingEnv> timing_env;
  Env* env = lsmlab::Env::Default();
  if (config.tracer != nullptr) {
    timing_env = std::make_unique<TimingEnv>(env, config.tracer);
    env = timing_env.get();
    Tracer::MarkClientThread();
  }
  OpStream stream;
  ProcessCpu cpu;
  double rss_base = 0;
  for (int round = 0; round < rounds; ++round) {
    Status s = RunRound(config, round, keys, env, &stream, &cpu, result, &rss_base);
    if (!s.ok()) {
      return s;
    }
  }
  result->peak_rss_bytes = PeakRssBytes() - rss_base;
  return Status::OK();
}

}  // namespace lsmbench
