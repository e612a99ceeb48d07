// End-to-end benchmark of the Liquid stack (nearline pipeline, cold rewind
// reprocessing). See perfbench/README.md for the workloads, the metrics and
// the reasons behind each choice.
//
//   liquid_bench --workload <nearline|reprocess> --seed N
//                --seconds S --trace <0|1> [--plant CHECK] [--spans-out PATH]
//
// Every run repeats whole episodes of identical work (set-up, timed phase,
// scan, output checks) until S seconds have passed. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 odd episodes record spans around every call into the stack and
// the metrics are the per-layer ones; a failed output check exits 3 without
// printing a result. --plant corrupts one observed value before the checks so
// the self-test can show that each check catches a discrepancy.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/liquid.h"
#include "processing/task.h"
#include "storage/page_cache.h"
#include "workload/generators.h"

namespace {

using liquid::Result;
using liquid::Status;
using liquid::core::FeedOptions;
using liquid::core::Liquid;
using liquid::messaging::ConsumerRecord;
using liquid::messaging::TopicPartition;
using liquid::storage::Record;

constexpr int kPartitions = 4;
constexpr int64_t kStartMs = 1'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Failure reporting. Set-up failures abort the run (exit 4); output-check
// failures are collected and reported together (exit 3).

std::string g_plant;  // Name of the check whose observed input is corrupted.

void Must(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "liquid_bench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(4);
}

std::vector<std::string> g_check_failures;

void Check(bool ok, const std::string& check, const std::string& detail) {
  if (!ok) g_check_failures.push_back(check + ": " + detail);
}

bool Planted(const char* check) { return g_plant == check; }

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark around its calls into the stack. Each
// thread appends to its own log; logs stay in memory until the run ends.

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // Index into the same thread's log; -1 for a root.
};

struct SpanLog {
  std::vector<SpanRecord> spans;
  std::vector<int32_t> open;
};

std::atomic<bool> g_tracing{false};
std::mutex g_span_logs_mu;
std::vector<std::unique_ptr<SpanLog>> g_span_logs;

SpanLog* ThreadSpanLog() {
  thread_local SpanLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_span_logs_mu);
    g_span_logs.push_back(std::make_unique<SpanLog>());
    log = g_span_logs.back().get();
  }
  return log;
}

class Span {
 public:
  explicit Span(const char* name) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    log_ = ThreadSpanLog();
    index_ = static_cast<int32_t>(log_->spans.size());
    const int32_t parent = log_->open.empty() ? -1 : log_->open.back();
    log_->spans.push_back(SpanRecord{name, NowNs(), 0, parent});
    log_->open.push_back(index_);
  }
  ~Span() {
    if (log_ == nullptr) return;
    log_->spans[index_].end_ns = NowNs();
    log_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_ = nullptr;
  int32_t index_ = 0;
};

struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

/// Per span name: calls, total and self time (duration minus the part of it
/// covered by child spans).
std::map<std::string, SpanTotals> SummarizeSpans() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(g_span_logs_mu);
  for (const auto& log : g_span_logs) {
    std::vector<int64_t> child_ns(log->spans.size(), 0);
    for (const SpanRecord& span : log->spans) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& span = log->spans[i];
      SpanTotals& totals = out[span.name];
      ++totals.calls;
      totals.total_ns += span.end_ns - span.start_ns;
      totals.self_ns += span.end_ns - span.start_ns - child_ns[i];
    }
  }
  return out;
}

void WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "liquid_bench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "thread\tindex\tparent\tname\tstart_ns\tend_ns\n");
  std::lock_guard<std::mutex> lock(g_span_logs_mu);
  for (size_t t = 0; t < g_span_logs.size(); ++t) {
    const auto& spans = g_span_logs[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "%zu\t%zu\t%d\t%s\t%lld\t%lld\n", t, i, spans[i].parent,
                   spans[i].name, static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Measurements accumulated over every episode of a run.

struct OpCount {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Note(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

struct Ops {
  OpCount produce;   // Producer::Flush calls (one per batch or round).
  OpCount poll;      // Consumer::Poll calls.
  OpCount run_once;  // Job::RunOnce calls.
  void Add(const Ops& other) {
    produce.Add(other.produce);
    poll.Add(other.poll);
    run_once.Add(other.run_once);
  }
};

/// Counters the program already exposes, summed over the brokers. Taken
/// before and after an episode's measured phase; the difference is the
/// phase's work.
struct ClusterCounters {
  int64_t disk_written = 0;
  int64_t disk_read = 0;
  int64_t disk_read_ops = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t evictions = 0;
  int64_t forced_evictions = 0;
  int64_t produce_requests = 0;
  int64_t isr_shrinks = 0;
  int64_t isr_expands = 0;
  int64_t fetch_zero_copy = 0;
  int64_t fetch_copied = 0;
  int64_t state_disk_written = 0;

  void AddDelta(const ClusterCounters& after, const ClusterCounters& before) {
    disk_written += after.disk_written - before.disk_written;
    disk_read += after.disk_read - before.disk_read;
    disk_read_ops += after.disk_read_ops - before.disk_read_ops;
    cache_hits += after.cache_hits - before.cache_hits;
    cache_misses += after.cache_misses - before.cache_misses;
    evictions += after.evictions - before.evictions;
    forced_evictions += after.forced_evictions - before.forced_evictions;
    produce_requests += after.produce_requests - before.produce_requests;
    isr_shrinks += after.isr_shrinks - before.isr_shrinks;
    isr_expands += after.isr_expands - before.isr_expands;
    fetch_zero_copy += after.fetch_zero_copy - before.fetch_zero_copy;
    fetch_copied += after.fetch_copied - before.fetch_copied;
    state_disk_written += after.state_disk_written - before.state_disk_written;
  }
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string BrokerMetric(int id, const char* name) {
  return "liquid.broker." + std::to_string(id) + "." + name;
}

ClusterCounters Snapshot(Liquid* liquid) {
  ClusterCounters c;
  liquid::messaging::Cluster* cluster = liquid->cluster();
  liquid::MetricsRegistry* global = liquid::MetricsRegistry::Default();
  for (int id : cluster->BrokerIds()) {
    liquid::storage::MemDisk* disk = cluster->disk(id);
    c.disk_written += disk->bytes_written();
    c.disk_read += disk->bytes_read();
    c.disk_read_ops += disk->read_ops();
    liquid::messaging::Broker* broker = cluster->broker(id);
    liquid::storage::PageCache* cache = broker->page_cache();
    c.cache_hits += cache->hits();
    c.cache_misses += cache->misses();
    c.evictions += cache->evictions();
    c.forced_evictions += cache->forced_evictions();
    c.isr_shrinks += broker->metrics()->GetCounter("isr.shrinks")->value();
    c.isr_expands += broker->metrics()->GetCounter("isr.expands")->value();
    c.produce_requests +=
        global->GetHistogram(BrokerMetric(id, "produce_us"))->count();
  }
  for (const auto& [name, value] : global->CounterValues()) {
    if (name.rfind("liquid.log.", 0) != 0) continue;
    if (EndsWith(name, ".fetch_zero_copy_bytes")) c.fetch_zero_copy += value;
    if (EndsWith(name, ".fetch_copied_bytes")) c.fetch_copied += value;
  }
  auto* state_disk = dynamic_cast<liquid::storage::MemDisk*>(liquid->state_disk());
  if (state_disk != nullptr) c.state_disk_written = state_disk->bytes_written();
  return c;
}

void ResetLockWait(Liquid* liquid) {
  for (int id : liquid->cluster()->BrokerIds()) {
    liquid::MetricsRegistry::Default()
        ->GetHistogram(BrokerMetric(id, "produce_lock_wait_us"))
        ->Reset();
  }
}

struct Tally {
  std::vector<double> setup_s;
  std::vector<int64_t> ack_ns;
  std::vector<int64_t> output_ns;
  std::vector<int64_t> poll_ns;  // Non-empty polls only.
  int64_t poll_records = 0;
  // Per-episode rates, reported as medians over the run's episodes so one
  // episode disturbed by the host does not move the result. Indexed by
  // whether the episode was traced.
  std::vector<double> rates[2];
  std::vector<double> scan_rates;
  int64_t records = 0;  // Input records of all measured phases.
  ClusterCounters counters;
  liquid::Histogram lock_wait_us;
  int64_t producer_retries = 0;
  int64_t store_puts = 0;
  Ops ops;
  int episodes = 0;

  void AddRate(bool traced, int64_t n, int64_t elapsed_ns) {
    records += n;
    if (elapsed_ns > 0) rates[traced].push_back(1e9 * static_cast<double>(n) / elapsed_ns);
  }
};

/// Shared bracket around an episode's measured phase (timed loop + scan):
/// resets the lock-wait histograms, snapshots the counters, and folds the
/// deltas into the tally afterwards.
class MeasuredPhase {
 public:
  MeasuredPhase(Liquid* liquid, Tally* tally)
      : liquid_(liquid), tally_(tally) {
    ResetLockWait(liquid_);
    before_ = Snapshot(liquid_);
  }
  ~MeasuredPhase() {
    tally_->counters.AddDelta(Snapshot(liquid_), before_);
    for (int id : liquid_->cluster()->BrokerIds()) {
      tally_->lock_wait_us.Merge(
          *liquid::MetricsRegistry::Default()->GetHistogram(
              BrokerMetric(id, "produce_lock_wait_us")));
    }
  }
  MeasuredPhase(const MeasuredPhase&) = delete;
  MeasuredPhase& operator=(const MeasuredPhase&) = delete;

 private:
  Liquid* liquid_;
  Tally* tally_;
  ClusterCounters before_;
};

Result<std::vector<ConsumerRecord>> TimedPoll(
    liquid::messaging::Consumer* consumer, size_t max_records, Ops* ops,
    std::vector<int64_t>* poll_ns, int64_t* poll_records) {
  Span span("consumer.poll");
  const int64_t t0 = NowNs();
  auto records = consumer->Poll(max_records);
  const int64_t t1 = NowNs();
  ops->poll.Note(records.ok());
  if (records.ok() && !records->empty()) {
    poll_ns->push_back(t1 - t0);
    *poll_records += static_cast<int64_t>(records->size());
  }
  return records;
}

Status TimedFlush(liquid::messaging::Producer* producer, Ops* ops) {
  Span span("producer.flush");
  Status st = producer->Flush();
  ops->produce.Note(st.ok());
  return st;
}

Status TimedSend(liquid::messaging::Producer* producer, const std::string& topic,
                 Record record) {
  Span span("producer.send");
  return producer->Send(topic, std::move(record));
}

Result<int> TimedRunOnce(liquid::processing::Job* job, Ops* ops) {
  Span span("job.run_once");
  auto processed = job->RunOnce();
  ops->run_once.Note(processed.ok());
  return processed;
}

Liquid::Options StackOptions(liquid::Clock* clock, size_t cache_bytes) {
  Liquid::Options options;
  options.clock = clock;
  options.cluster.num_brokers = 3;
  options.cluster.disk_latency = liquid::storage::DiskLatencyModel::ScaledHdd();
  options.cluster.broker.page_cache.capacity_bytes = cache_bytes;
  return options;
}

FeedOptions ReplicatedFeed(bool compacted) {
  FeedOptions feed;
  feed.partitions = kPartitions;
  feed.replication_factor = 3;
  feed.min_insync_replicas = 2;
  feed.log.compaction_enabled = compacted;
  return feed;
}

std::unique_ptr<Liquid> StartStack(Liquid::Options options) {
  auto liquid = Liquid::Start(std::move(options));
  Must(liquid.status(), "Liquid::Start");
  return std::move(liquid).value();
}

/// Value of `name` in a "k1=v1;k2=v2" payload, parsed here rather than with
/// the program's own parser so the reference fold stays independent of it.
std::string FieldOf(const std::string& payload, const std::string& name) {
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t end = payload.find(';', pos);
    if (end == std::string::npos) end = payload.size();
    const size_t eq = payload.find('=', pos);
    if (eq != std::string::npos && eq < end &&
        payload.compare(pos, eq - pos, name) == 0) {
      return payload.substr(eq + 1, end - eq - 1);
    }
    pos = end + 1;
  }
  return "";
}

/// Reads `topic` from offset 0 with a fresh consumer group until `expected`
/// records arrived (or the feed stops yielding); returns them in poll order.
/// A simulated clock, when given, advances by `step_ms` per poll.
std::vector<ConsumerRecord> ScanFromStart(Liquid* liquid, const std::string& topic,
                                          const std::string& group,
                                          int64_t expected, Tally* tally,
                                          liquid::SimulatedClock* clock = nullptr,
                                          int64_t step_ms = 0) {
  auto consumer = liquid->NewConsumer(group, group + "-0", true);
  Must(consumer->Subscribe({topic}), "scan Subscribe");
  std::vector<ConsumerRecord> out;
  out.reserve(static_cast<size_t>(expected));
  int empty = 0;
  int64_t polling_ns = 0;  // Time inside Poll only, not the copying below.
  while (static_cast<int64_t>(out.size()) < expected && empty < 50) {
    const int64_t t0 = NowNs();
    auto records = TimedPoll(consumer.get(), 2048, &tally->ops, &tally->poll_ns,
                             &tally->poll_records);
    polling_ns += NowNs() - t0;
    if (clock != nullptr) clock->AdvanceMs(step_ms);
    if (!records.ok() || records->empty()) {
      ++empty;
      continue;
    }
    empty = 0;
    for (auto& r : *records) out.push_back(std::move(r));
  }
  if (polling_ns > 0) {
    tally->scan_rates.push_back(1e9 * static_cast<double>(out.size()) / polling_ns);
  }
  LIQUID_IGNORE_ERROR(consumer->Close());
  return out;
}

// ---------------------------------------------------------------------------
// nearline: the §5.1 site-speed pipeline at the head of the log.

constexpr const char* kRumFeed = "rum-events";
constexpr const char* kCdnFeed = "cdn-latency";
constexpr const char* kCdnStore = "cdn-stats";

struct NearlineShape {
  int events_per_round = 256;
  int warmup_rounds = 40;
  int rounds = 300;
  // Simulated time per round and per scan poll, from the measured rates:
  // 256 events at ~32k/s, 2,048 scanned records at ~400k/s.
  int64_t step_ms = 8;
  int64_t scan_step_ms = 5;
};

/// Per-CDN aggregation: keeps (sum, count) of load times in a persistent,
/// changelogged store and emits one derived record per input, tagged with the
/// input's partition and offset.
class CdnAggregateTask final : public liquid::processing::StreamTask {
 public:
  explicit CdnAggregateTask(int64_t* puts) : puts_(puts) {}

  Status Init(liquid::processing::TaskContext* context) override {
    store_ = context->GetStore(kCdnStore);
    if (store_ == nullptr) return Status::FailedPrecondition("no cdn store");
    return Status::OK();
  }

  Status Process(const ConsumerRecord& envelope,
                 liquid::processing::MessageCollector* collector,
                 liquid::processing::TaskCoordinator*) override {
    Span span("task.process");
    auto fields = liquid::workload::ParseEvent(envelope.record.value);
    const std::string cdn = fields["cdn"];
    const int64_t load = std::strtoll(fields["load_ms"].c_str(), nullptr, 10);
    int64_t sum = 0;
    int64_t count = 0;
    auto current = [&] {
      Span get("store.get");
      return store_->Get(cdn);
    }();
    if (current.ok()) {
      sum = std::strtoll(current->c_str(), nullptr, 10);
      count = std::strtoll(current->c_str() + current->find(':') + 1, nullptr, 10);
    } else if (!current.status().IsNotFound()) {
      return current.status();
    }
    sum += load;
    ++count;
    {
      Span put("store.put");
      ++*puts_;
      LIQUID_RETURN_NOT_OK(
          store_->Put(cdn, std::to_string(sum) + ":" + std::to_string(count)));
    }
    Span send("collector.send");
    return collector->Send(
        kCdnFeed,
        Record::KeyValue(cdn, std::to_string(envelope.tp.partition) + ":" +
                                  std::to_string(envelope.record.offset) + ":" +
                                  std::to_string(sum / count)));
  }

 private:
  int64_t* puts_;
  liquid::processing::KeyValueStore* store_ = nullptr;
};

class NearlineEpisode {
 public:
  NearlineEpisode(uint64_t seed, Tally* tally)
      : tally_(tally), clock_(kStartMs), generator_(GeneratorOptions(seed)) {}

  void Setup() {
    liquid_ = StartStack(StackOptions(&clock_, 64ull << 20));
    Must(liquid_->CreateSourceFeed(kRumFeed, ReplicatedFeed(false)),
         "create rum feed");
    Must(liquid_->CreateDerivedFeed(kCdnFeed, ReplicatedFeed(false), "cdn-agg",
                                    "v1", {kRumFeed}),
         "create cdn feed");
    liquid::processing::JobConfig config;
    config.name = "cdn-agg";
    config.inputs = {kRumFeed};
    config.stores = {{kCdnStore,
                      liquid::processing::StoreConfig::Kind::kPersistent, true}};
    config.poll_max_records = 512;
    int64_t* puts = &puts_;
    auto job = liquid_->SubmitJob(config, [puts] {
      return std::make_unique<CdnAggregateTask>(puts);
    });
    Must(job.status(), "SubmitJob cdn-agg");
    job_ = *job;
    ops_consumer_ = liquid_->NewConsumer("ops", "ops-0", true);
    Must(ops_consumer_->Subscribe({kCdnFeed}), "ops Subscribe");
    liquid::messaging::ProducerConfig producer_config;
    producer_config.idempotent = true;
    producer_ = liquid_->NewProducer(producer_config);
    for (int i = 0; i < shape_.warmup_rounds; ++i) Round(false);
  }

  void Measure() {
    MeasuredPhase phase(liquid_.get(), tally_);
    const int64_t puts_before = puts_;
    const int64_t retries_before = producer_->send_retries();
    const bool traced = g_tracing.load();
    int64_t busy_ns = 0;
    for (int i = 0; i < shape_.rounds; ++i) busy_ns += Round(true);
    tally_->AddRate(traced,
                    static_cast<int64_t>(shape_.rounds) * shape_.events_per_round,
                    busy_ns);
    tally_->store_puts += puts_ - puts_before;
    tally_->producer_retries += producer_->send_retries() - retries_before;
    scanned_ = ScanFromStart(liquid_.get(), kRumFeed, "scan", sent_, tally_,
                             &clock_, shape_.scan_step_ms);
  }

  void Verify() {
    // Store fold: per-CDN (sum, count) summed over every task's store.
    std::map<std::string, std::pair<int64_t, int64_t>> stored;
    for (int p = 0; p < kPartitions; ++p) {
      auto* store = job_->GetStore(p, kCdnStore);
      if (store == nullptr) continue;
      Must(store->ForEach([&](const liquid::Slice& k, const liquid::Slice& v) {
             const std::string value = v.ToString();
             auto& slot = stored[k.ToString()];
             slot.first += std::strtoll(value.c_str(), nullptr, 10);
             slot.second += std::strtoll(value.c_str() + value.find(':') + 1,
                                         nullptr, 10);
           }),
           "store ForEach");
    }
    if (Planted("nearline.store_fold") && !stored.empty()) {
      stored.begin()->second.first += 1;
    }
    Check(stored == expected_, "nearline.store_fold",
          "per-CDN (sum, count) in the job's stores differs from the fold of "
          "the generated events");

    // Delivery: exactly one derived record per input (partition, offset).
    std::vector<std::vector<int>> seen(kPartitions);
    std::map<std::string, std::pair<int64_t, int64_t>> delivered_per_cdn;
    int64_t bad = 0;
    if (Planted("nearline.delivery") && !delivered_.empty()) {
      delivered_.push_back(delivered_.back());
    }
    for (const auto& [cdn, source] : delivered_) {
      const int p = std::atoi(source.c_str());
      const int64_t offset =
          std::strtoll(source.c_str() + source.find(':') + 1, nullptr, 10);
      if (p < 0 || p >= kPartitions || offset < 0) {
        ++bad;
        continue;
      }
      auto& marks = seen[p];
      if (static_cast<int64_t>(marks.size()) <= offset) marks.resize(offset + 1, 0);
      ++marks[offset];
      ++delivered_per_cdn[cdn].second;
    }
    int64_t distinct = 0;
    for (const auto& marks : seen) {
      for (int m : marks) {
        if (m == 1) ++distinct;
        if (m != 1) ++bad;  // A gap or a duplicate.
      }
    }
    Check(bad == 0 && distinct == sent_ &&
              static_cast<int64_t>(delivered_.size()) == sent_,
          "nearline.delivery",
          "derived records " + std::to_string(delivered_.size()) + " (" +
              std::to_string(distinct) + " distinct inputs, " +
              std::to_string(bad) + " bad) for " + std::to_string(sent_) +
              " inputs");
    bool counts_match = delivered_per_cdn.size() == expected_.size();
    for (const auto& [cdn, sc] : expected_) {
      counts_match = counts_match && delivered_per_cdn[cdn].second == sc.second;
    }
    Check(counts_match, "nearline.delivery",
          "per-CDN derived record counts differ from the fold");
    if (Planted("nearline.scan") && !scanned_.empty()) scanned_.pop_back();
    Check(static_cast<int64_t>(scanned_.size()) == sent_, "nearline.scan",
          "scan read " + std::to_string(scanned_.size()) + " of " +
              std::to_string(sent_) + " records");
  }

 private:
  static liquid::workload::RumEventGenerator::Options GeneratorOptions(
      uint64_t seed) {
    liquid::workload::RumEventGenerator::Options options;
    options.seed = seed;
    return options;
  }

  /// One round; returns its wall time from the first Send to the ops
  /// consumer holding the round's outputs. The inputs, their reference fold
  /// and the bookkeeping of the outputs stay outside that window, so it holds
  /// only calls into the stack.
  int64_t Round(bool timed) {
    Ops& ops = tally_->ops;
    std::vector<Record> events;
    events.reserve(shape_.events_per_round);
    for (int i = 0; i < shape_.events_per_round; ++i) {
      events.push_back(generator_.Next(clock_.NowMs()));
      const std::string& value = events.back().value;
      auto& slot = expected_[FieldOf(value, "cdn")];
      slot.first += std::strtoll(FieldOf(value, "load_ms").c_str(), nullptr, 10);
      ++slot.second;
    }
    std::vector<std::vector<ConsumerRecord>> outputs;
    const int64_t t0 = NowNs();
    for (Record& event : events) {
      Must(TimedSend(producer_.get(), kRumFeed, std::move(event)), "Send");
    }
    const bool acked = TimedFlush(producer_.get(), &ops).ok();
    const int64_t t_ack = NowNs();
    if (acked) sent_ += shape_.events_per_round;

    int processed = 0;
    for (int tries = 0; processed < shape_.events_per_round && tries < 8; ++tries) {
      auto n = TimedRunOnce(job_, &ops);
      if (n.ok()) processed += *n;
    }
    int64_t got = 0;
    for (int empty = 0; got < processed && empty < 8;) {
      auto records = TimedPoll(ops_consumer_.get(), 1024, &ops, &tally_->poll_ns,
                               &tally_->poll_records);
      if (!records.ok() || records->empty()) {
        ++empty;
        continue;
      }
      got += static_cast<int64_t>(records->size());
      outputs.push_back(std::move(records).value());
    }
    const int64_t t_out = NowNs();
    for (const auto& batch : outputs) {
      for (const auto& r : batch) delivered_.emplace_back(r.record.key, r.record.value);
    }
    if (timed) {
      tally_->ack_ns.push_back(t_ack - t0);
      if (got == shape_.events_per_round) tally_->output_ns.push_back(t_out - t0);
    }
    clock_.AdvanceMs(shape_.step_ms);
    return t_out - t0;
  }

  Tally* tally_;
  NearlineShape shape_;
  liquid::SimulatedClock clock_;
  liquid::workload::RumEventGenerator generator_;
  std::unique_ptr<Liquid> liquid_;
  liquid::processing::Job* job_ = nullptr;
  std::unique_ptr<liquid::messaging::Consumer> ops_consumer_;
  std::unique_ptr<liquid::messaging::Producer> producer_;
  int64_t puts_ = 0;
  int64_t sent_ = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> expected_;
  std::vector<std::pair<std::string, std::string>> delivered_;  // (cdn, p:off)
  std::vector<ConsumerRecord> scanned_;
};

// ---------------------------------------------------------------------------
// reprocess: a new job version rewinds a retained history while the feed
// keeps taking writes at its head.

constexpr const char* kProfileFeed = "profiles";
constexpr const char* kCleanFeed = "profiles-clean";

struct ReprocessShape {
  int64_t history = 40'000;
  uint64_t users = 20'000;
  double zipf_theta = 0.99;
  size_t value_bytes = 100;
  size_t cache_bytes = 1ull << 20;  // Each broker holds ~6 MiB of history.
  int load_batch = 512;
  int head_records_per_round = 64;
  size_t poll_max_records = 1024;
  // Simulated time per rewind round and per scan poll, from the measured
  // rates: ~1,016 records per round at ~29k/s, 2,048 scanned records at ~93k/s.
  int64_t step_ms = 35;
  int64_t scan_step_ms = 22;
};

/// The "new version" of a cleaning job: normalizes every value to upper case.
std::string Clean(std::string value) {
  for (char& c : value) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return value;
}

class CleanTask final : public liquid::processing::StreamTask {
 public:
  Status Process(const ConsumerRecord& envelope,
                 liquid::processing::MessageCollector* collector,
                 liquid::processing::TaskCoordinator*) override {
    Span span("task.process");
    Record out = Record::KeyValue(envelope.record.key,
                                  Clean(envelope.record.value),
                                  envelope.record.timestamp_ms);
    Span send("collector.send");
    return collector->Send(kCleanFeed, std::move(out));
  }
};

class ReprocessEpisode {
 public:
  ReprocessEpisode(uint64_t seed, Tally* tally)
      : tally_(tally), clock_(kStartMs), generator_(GeneratorOptions(seed)) {}

  void Setup() {
    liquid_ = StartStack(StackOptions(&clock_, shape_.cache_bytes));
    Must(liquid_->CreateSourceFeed(kProfileFeed, ReplicatedFeed(false)),
         "create profile feed");
    Must(liquid_->CreateDerivedFeed(kCleanFeed, ReplicatedFeed(true),
                                    "profile-cleaner", "v2", {kProfileFeed}),
         "create clean feed");
    liquid::messaging::ProducerConfig load_config;
    load_config.batch_max_records = static_cast<size_t>(shape_.load_batch);
    auto loader = liquid_->NewProducer(load_config);
    for (int64_t i = 0; i < shape_.history; ++i) {
      Must(loader->Send(kProfileFeed, NextUpdate()), "history Send");
      if ((i + 1) % shape_.load_batch == 0) clock_.AdvanceMs(1);
    }
    Must(loader->Flush(), "history Flush");
    written_ = shape_.history;
    // Let the history age past the page cache's dirty window, as a retained
    // feed would have before anyone rewinds it.
    clock_.AdvanceMs(10'000);

    liquid::processing::JobConfig config;
    config.name = "profile-cleaner";
    config.inputs = {kProfileFeed};
    config.poll_max_records = shape_.poll_max_records;
    config.checkpoint_annotations = {{"version", "v2"}};
    auto job = liquid_->SubmitJob(config, [] {
      return std::make_unique<CleanTask>();
    });
    Must(job.status(), "SubmitJob profile-cleaner");
    job_ = *job;
    serving_ = liquid_->NewConsumer("serving", "serving-0", true);
    Must(serving_->Subscribe({kCleanFeed}), "serving Subscribe");
    head_writer_ = liquid_->NewProducer();
  }

  void Measure() {
    MeasuredPhase phase(liquid_.get(), tally_);
    Ops& ops = tally_->ops;
    const bool traced = g_tracing.load();
    const int64_t retries_before = head_writer_->send_retries();
    int64_t busy_ns = 0;
    int idle_rounds = 0;
    while (processed_ < written_ && idle_rounds < 8) {
      // As in nearline: inputs and the bookkeeping of outputs stay outside
      // the timed window.
      std::vector<Record> updates;
      updates.reserve(shape_.head_records_per_round);
      for (int i = 0; i < shape_.head_records_per_round; ++i) {
        updates.push_back(NextUpdate());
      }
      std::vector<std::vector<ConsumerRecord>> outputs;
      const int64_t t0 = NowNs();
      for (Record& update : updates) {
        Must(TimedSend(head_writer_.get(), kProfileFeed, std::move(update)), "Send");
      }
      const bool acked = TimedFlush(head_writer_.get(), &ops).ok();
      const int64_t t_ack = NowNs();
      if (acked) written_ += shape_.head_records_per_round;
      auto n = TimedRunOnce(job_, &ops);
      const int processed = n.ok() ? *n : 0;
      processed_ += processed;
      idle_rounds = processed == 0 ? idle_rounds + 1 : 0;
      int64_t got = 0;
      for (int empty = 0; got < processed && empty < 8;) {
        auto records = TimedPoll(serving_.get(), 4096, &ops, &tally_->poll_ns,
                                 &tally_->poll_records);
        if (!records.ok() || records->empty()) {
          ++empty;
          continue;
        }
        got += static_cast<int64_t>(records->size());
        outputs.push_back(std::move(records).value());
      }
      const int64_t t_out = NowNs();
      busy_ns += t_out - t0;
      for (auto& batch : outputs) {
        for (auto& r : batch) {
          ++derived_count_;
          latest_derived_[r.record.key] = std::move(r.record.value);
        }
      }
      tally_->ack_ns.push_back(t_ack - t0);
      if (got == processed && processed > 0) tally_->output_ns.push_back(t_out - t0);
      clock_.AdvanceMs(shape_.step_ms);
    }
    tally_->AddRate(traced, processed_, busy_ns);
    tally_->producer_retries += head_writer_->send_retries() - retries_before;
    scanned_ = ScanFromStart(liquid_.get(), kProfileFeed, "scan", written_,
                             tally_, &clock_, shape_.scan_step_ms);
  }

  void Verify() {
    if (Planted("reprocess.latest_value") && !latest_derived_.empty()) {
      latest_derived_.begin()->second += "X";
    }
    bool values_match = latest_derived_.size() == latest_input_.size();
    std::string first_bad;
    for (const auto& [key, value] : latest_input_) {
      auto it = latest_derived_.find(key);
      if (it == latest_derived_.end() || it->second != Clean(value)) {
        values_match = false;
        if (first_bad.empty()) first_bad = key;
      }
    }
    Check(values_match, "reprocess.latest_value",
          "latest derived value per key differs from the transform of the "
          "latest input (first key: " + first_bad + ")");
    if (Planted("reprocess.count")) ++derived_count_;
    Check(processed_ == written_ && derived_count_ == written_,
          "reprocess.count",
          "rewrote " + std::to_string(processed_) + " and read back " +
              std::to_string(derived_count_) + " derived records of " +
              std::to_string(written_));

    if (Planted("reprocess.scan") && !scanned_.empty()) scanned_.pop_back();
    std::map<std::string, std::string> latest_scanned;
    for (const auto& r : scanned_) latest_scanned[r.record.key] = r.record.value;
    Check(static_cast<int64_t>(scanned_.size()) == written_ &&
              latest_scanned == latest_input_,
          "reprocess.scan",
          "scan read " + std::to_string(scanned_.size()) + " of " +
              std::to_string(written_) + " records");
  }

 private:
  static liquid::workload::ProfileUpdateGenerator::Options GeneratorOptions(
      uint64_t seed) {
    ReprocessShape shape;
    liquid::workload::ProfileUpdateGenerator::Options options;
    options.num_users = shape.users;
    options.zipf_theta = shape.zipf_theta;
    options.value_bytes = shape.value_bytes;
    options.seed = seed;
    return options;
  }

  Record NextUpdate() {
    Record update = generator_.Next(clock_.NowMs());
    latest_input_[update.key] = update.value;
    return update;
  }

  Tally* tally_;
  ReprocessShape shape_;
  liquid::SimulatedClock clock_;
  liquid::workload::ProfileUpdateGenerator generator_;
  std::unique_ptr<Liquid> liquid_;
  liquid::processing::Job* job_ = nullptr;
  std::unique_ptr<liquid::messaging::Consumer> serving_;
  std::unique_ptr<liquid::messaging::Producer> head_writer_;
  int64_t written_ = 0;
  int64_t processed_ = 0;
  int64_t derived_count_ = 0;
  std::map<std::string, std::string> latest_input_;
  std::map<std::string, std::string> latest_derived_;
  std::vector<ConsumerRecord> scanned_;
};

// ---------------------------------------------------------------------------
// Episode loop, statistics and output.

template <typename Episode>
void RunEpisode(uint64_t seed, bool traced, Tally* tally) {
  Episode episode(seed, tally);
  const int64_t t0 = NowNs();
  episode.Setup();
  tally->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  g_tracing.store(traced);
  episode.Measure();
  g_tracing.store(false);
  episode.Verify();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, in microseconds.
double PercentileUs(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]) / 1e3;
}

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // Drop trailing NULs.
  while (!model.empty() && model.front() == ' ') model.erase(model.begin());
  for (char& c : model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return model;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> EndToEnd(const Tally& t) {
  const double inputs = static_cast<double>(t.records);
  return {
      {"setup_s", Median(t.setup_s), "s"},
      {"records_per_s", Median(t.rates[0]), "1/s"},
      {"ack_p50_us", PercentileUs(t.ack_ns, 0.5), "us"},
      {"ack_p90_us", PercentileUs(t.ack_ns, 0.9), "us"},
      {"output_p50_us", PercentileUs(t.output_ns, 0.5), "us"},
      {"output_p90_us", PercentileUs(t.output_ns, 0.9), "us"},
      {"scan_records_per_s", Median(t.scan_rates), "1/s"},
      {"disk_bytes_per_record",
       Ratio(static_cast<double>(t.counters.disk_written +
                                 t.counters.state_disk_written),
             inputs),
       "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Tally& t) {
  const double inputs = static_cast<double>(t.records);
  const ClusterCounters& c = t.counters;
  const auto spans = SummarizeSpans();
  auto self_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.calls == 0
               ? 0.0
               : static_cast<double>(it->second.self_ns) /
                     static_cast<double>(it->second.calls) / 1e3;
  };
  const double untraced = Median(t.rates[0]);
  const double traced = Median(t.rates[1]);
  return {
      {"messaging.producer.batches_per_krec",
       Ratio(1000.0 * static_cast<double>(c.produce_requests), inputs), "count"},
      {"messaging.producer.retries", static_cast<double>(t.producer_retries),
       "count"},
      {"messaging.producer.send_self_us", self_us("producer.send"), "us"},
      {"messaging.producer.flush_us", self_us("producer.flush"), "us"},
      {"messaging.broker.isr_shrinks", static_cast<double>(c.isr_shrinks),
       "count"},
      {"messaging.broker.isr_expands", static_cast<double>(c.isr_expands),
       "count"},
      {"messaging.broker.produce_lock_wait_p50_us",
       static_cast<double>(t.lock_wait_us.ValueAtQuantile(0.5)), "us"},
      {"messaging.broker.produce_lock_wait_p99_us",
       static_cast<double>(t.lock_wait_us.ValueAtQuantile(0.99)), "us"},
      {"messaging.consumer.poll_p50_us", PercentileUs(t.poll_ns, 0.5), "us"},
      {"messaging.consumer.records_per_poll",
       Ratio(static_cast<double>(t.poll_records),
             static_cast<double>(t.poll_ns.size())),
       "count"},
      {"storage.page_cache.hit_ratio",
       Ratio(static_cast<double>(c.cache_hits),
             static_cast<double>(c.cache_hits + c.cache_misses)),
       "ratio"},
      {"storage.page_cache.evictions", static_cast<double>(c.evictions), "count"},
      {"storage.page_cache.forced_evictions",
       static_cast<double>(c.forced_evictions), "count"},
      {"storage.disk.read_ops_per_record",
       Ratio(static_cast<double>(c.disk_read_ops), inputs), "count"},
      {"storage.disk.bytes_read_per_record",
       Ratio(static_cast<double>(c.disk_read), inputs), "B"},
      {"storage.disk.bytes_written_per_record",
       Ratio(static_cast<double>(c.disk_written), inputs), "B"},
      {"storage.log.fetch_zero_copy_bytes_per_record",
       Ratio(static_cast<double>(c.fetch_zero_copy), inputs), "B"},
      {"storage.log.fetch_copied_bytes_per_record",
       Ratio(static_cast<double>(c.fetch_copied), inputs), "B"},
      {"processing.job.run_once_self_us", self_us("job.run_once"), "us"},
      {"processing.task.process_self_us", self_us("task.process"), "us"},
      {"processing.collector.send_us", self_us("collector.send"), "us"},
      {"processing.store.get_us", self_us("store.get"), "us"},
      {"processing.store.put_us", self_us("store.put"), "us"},
      {"kv.bytes_written_per_put",
       Ratio(static_cast<double>(c.state_disk_written),
             static_cast<double>(t.store_puts)),
       "B"},
      {"ops.produce.attempted", static_cast<double>(t.ops.produce.attempted),
       "count"},
      {"ops.produce.failed", static_cast<double>(t.ops.produce.failed), "count"},
      {"ops.poll.attempted", static_cast<double>(t.ops.poll.attempted), "count"},
      {"ops.poll.failed", static_cast<double>(t.ops.poll.failed), "count"},
      {"ops.run_once.attempted", static_cast<double>(t.ops.run_once.attempted),
       "count"},
      {"ops.run_once.failed", static_cast<double>(t.ops.run_once.failed),
       "count"},
      {"trace.overhead_pct", 100.0 * Ratio(untraced - traced, untraced), "%"},
      {"bench.episodes", static_cast<double>(t.episodes), "count"},
  };
}

void PrintSpanSummary() {
  const auto spans = SummarizeSpans();
  std::printf("# per-layer self time (traced episodes)\n");
  std::printf("# %-16s %10s %12s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms", "self_us/call");
  for (const auto& [name, s] : spans) {
    std::printf("# %-16s %10lld %12.3f %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(s.calls),
                static_cast<double>(s.total_ns) / 1e6,
                static_cast<double>(s.self_ns) / 1e6,
                Ratio(static_cast<double>(s.self_ns) / 1e3,
                      static_cast<double>(s.calls)));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: liquid_bench --workload nearline|reprocess "
               "--seed N --seconds S --trace 0|1 [--plant CHECK] "
               "[--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--plant") {
      g_plant = value;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  void (*run)(uint64_t, bool, Tally*) = nullptr;
  if (workload == "nearline") run = RunEpisode<NearlineEpisode>;
  if (workload == "reprocess") run = RunEpisode<ReprocessEpisode>;
  if (run == nullptr || seconds <= 0) return Usage();

  // Timings from an unoptimized or assertion-enabled build say nothing about
  // the program; refuse to report them.
  const std::string build_type = LIQUID_BENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts_off = true;
#else
  const bool asserts_off = false;
#endif
  if (build_type != "Release" || !asserts_off) {
    std::fprintf(stderr,
                 "liquid_bench: refusing to report metrics from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  Tally tally;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  // Whole episodes until the time is up; a traced run needs at least one
  // untraced and one traced episode for the overhead comparison.
  do {
    run(seed, trace && tally.episodes % 2 == 1, &tally);
    ++tally.episodes;
    // Hand the finished episode's heap back so peak_rss_mb is the peak of
    // one episode, not of however many ran before it.
    malloc_trim(0);
  } while (NowNs() < deadline || (trace && tally.episodes < 2));

  if (!g_check_failures.empty()) {
    for (const std::string& failure : g_check_failures) {
      std::fprintf(stderr, "CHECK FAILED %s\n", failure.c_str());
    }
    return 3;
  }

  const Ops& ops = tally.ops;
  std::printf("# ops: produce %lld/%lld failed, poll %lld/%lld failed, "
              "run_once %lld/%lld failed; retries %lld, isr shrinks %lld\n",
              static_cast<long long>(ops.produce.failed),
              static_cast<long long>(ops.produce.attempted),
              static_cast<long long>(ops.poll.failed),
              static_cast<long long>(ops.poll.attempted),
              static_cast<long long>(ops.run_once.failed),
              static_cast<long long>(ops.run_once.attempted),
              static_cast<long long>(tally.producer_retries),
              static_cast<long long>(tally.counters.isr_shrinks));
  std::printf("# samples: episodes %d; ack n=%zu p99=%.1fus; output n=%zu "
              "p99=%.1fus\n",
              tally.episodes, tally.ack_ns.size(), PercentileUs(tally.ack_ns, 0.99),
              tally.output_ns.size(), PercentileUs(tally.output_ns, 0.99));
  std::printf("{\"host\": {\"nproc\": %d, \"cpu_model\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\"}}\n",
              CpuCount(), CpuModel().c_str(), build_type.c_str(), __VERSION__);
  if (trace) {
    PrintSpanSummary();
    if (!spans_out.empty()) WriteSpans(spans_out);
  }

  const std::vector<Metric> metrics = trace ? PerLayer(tally) : EndToEnd(tally);
  const int64_t attempted =
      ops.produce.attempted + ops.poll.attempted + ops.run_once.attempted;
  const int64_t failed = ops.produce.failed + ops.poll.failed + ops.run_once.failed;
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
